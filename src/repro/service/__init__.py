"""Simulation as a service: the ``repro-patrol serve`` daemon's machinery.

Three layers, deliberately separable:

* :mod:`repro.service.scheduler` — the transport-agnostic core: a bounded
  worker pool around the campaign executor, request **coalescing** keyed on
  run fingerprints (concurrent identical requests share one execution),
  store-hit short-circuiting, bounded-queue **backpressure** and graceful
  drain-to-store shutdown;
* :mod:`repro.service.registry` — the transport registry, a
  :class:`repro.registry.Registry` like the strategy / scenario / stage
  registries: ``@register_transport`` declares a wire protocol with a
  validated option table, listed by ``repro-patrol transports``;
* the built-in transports — :mod:`repro.service.http` (stdlib asyncio
  HTTP/1.1 with chunked NDJSON streaming) and :mod:`repro.service.stdio`
  (line-oriented JSON over stdin/stdout).

Every record the service emits is byte-identical (under JSON serialisation)
to the same spec executed by ``repro-patrol run`` — the scheduler expands
specs through the exact campaign path and shares the CLI's result store.
See ``docs/SERVICE.md``.

>>> from repro.service import ServiceScheduler
>>> with ServiceScheduler(store=False, workers=2) as scheduler:
...     ticket = scheduler.submit({"kind": "run", "strategy": "b-tctp",
...                                "scenario": {"family": "uniform",
...                                             "params": {"num_targets": 6,
...                                                        "num_mules": 2}},
...                                "sim": {"horizon": 500.0}})
...     events = list(ticket.events())
>>> events[0]["event"], events[-1]["event"], events[-1]["executed"]
('start', 'done', 1)
"""

from repro.service.registry import (
    TransportInfo,
    TransportParam,
    all_transport_infos,
    available_transports,
    canonical_transport_name,
    filter_transport_kwargs,
    get_transport,
    register_transport,
    transport_alias_table,
    transport_info,
    transport_params,
    validate_transport_options,
)
from repro.service.scheduler import (
    CampaignTicket,
    ServiceClosed,
    ServiceOverloaded,
    ServiceScheduler,
)

__all__ = [
    # scheduler core
    "ServiceScheduler",
    "CampaignTicket",
    "ServiceOverloaded",
    "ServiceClosed",
    # transport registry
    "TransportInfo",
    "TransportParam",
    "register_transport",
    "available_transports",
    "canonical_transport_name",
    "transport_info",
    "transport_params",
    "validate_transport_options",
    "get_transport",
    "filter_transport_kwargs",
    "all_transport_infos",
    "transport_alias_table",
]
