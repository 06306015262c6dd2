"""Unified observability: metric registry, spans, trace export, /metrics.

The library's single instrumentation substrate (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.registry` — process-wide counters, histograms, and
  nestable spans; near-zero-cost no-ops while disabled (the default).
  Enable with ``REPRO_OBS=1``, :func:`configure`, or a campaign spec's
  ``sim.obs`` knob.
* :mod:`repro.obs.trace` — Chrome-trace (Perfetto-loadable) JSON export
  and the JSONL span log written next to campaign artifacts.
* :mod:`repro.obs.prometheus` — the text formatter behind the serve
  daemon's ``GET /metrics`` and the stdio ``metrics`` op.
* :mod:`repro.obs.adapters` — the unified stats document plus the
  legacy-shape views the old store/scheduler/cache stats surfaces now
  render through.

Recording is proven byte-invisible: records, fingerprints, and golden
files are identical with the registry on or off (asserted by the obs
differential tests), and the snapshot embedded in
``CampaignResult.metadata["obs"]`` stays outside every fingerprinted
payload.
"""

from repro.obs.adapters import (
    cache_stats_view,
    scheduler_stats_view,
    stats_document,
    store_stats_view,
)
from repro.obs.prometheus import prometheus_text
from repro.obs.registry import (
    Window,
    absorb,
    configure,
    counter,
    drain,
    inc,
    obs_collected,
    obs_disabled,
    obs_enabled,
    observe,
    reset,
    snapshot,
    span,
    spans,
)
from repro.obs.trace import (
    chrome_trace,
    read_span_log,
    validate_trace,
    write_span_log,
    write_trace,
)

__all__ = [
    "configure",
    "obs_enabled",
    "obs_disabled",
    "obs_collected",
    "inc",
    "counter",
    "observe",
    "span",
    "snapshot",
    "spans",
    "reset",
    "drain",
    "absorb",
    "Window",
    "chrome_trace",
    "validate_trace",
    "write_trace",
    "write_span_log",
    "read_span_log",
    "prometheus_text",
    "stats_document",
    "store_stats_view",
    "scheduler_stats_view",
    "cache_stats_view",
]
