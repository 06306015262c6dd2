"""Helpers shared by the sweep and service workloads."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import statistics
import time
from typing import Any

import numpy as np


@dataclasses.dataclass
class Outcome:
    """What one benchmark run measured: metric values plus the op tally."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(f"FAILED x{count}: {why}")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


# The reference kernel's time on the quiet 2-vCPU Xeon VM the benchmark was
# tuned on.  Only ratios to it matter, so its exact value is a unit choice.
REFERENCE_NOMINAL_S = 0.0065
PROBE_RUNS = 3  # per CPU


def _reference_kernel() -> float:
    """Fixed interpreter + NumPy work, the same mix the program spends time on."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(20_000):
        key = i % 61
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.hypot(i, key)
    arr = np.arange(4_000, dtype=float)
    for _ in range(40):
        arr = np.cumsum(arr) % 7.0
    return acc + float(arr[-1])


def probe_s() -> float:
    """Reference kernel time right now, averaged over the CPUs this process may use.

    Run it only while the program idles.  Each vCPU is contended on its
    own (on the reference VM the two differed by 17% at a typical moment),
    so the kernel runs pinned to each CPU in turn.
    """
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(PROBE_RUNS):
                start = time.perf_counter()
                _reference_kernel()
                times.append(time.perf_counter() - start)
            per_cpu.append(median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(per_cpu) / len(per_cpu)


def speed_factor(before_s: float, after_s: float) -> float:
    """Scale turning times measured between two probes into reference-speed times.

    The benchmark's vCPUs share hosts with other tenants; on the VM it was
    tuned on, the same work ran up to 2x slower for seconds at a time and
    drifted by 20% over minutes.  A fixed reference kernel, timed just
    before and after each repetition while the program idles, slows down with
    it, so ``time * factor`` measures the program rather than its
    neighbours.  On a quiet machine the factor is close to 1.
    """
    return REFERENCE_NOMINAL_S / ((before_s + after_s) / 2.0)


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set size in MiB of this process, or of its largest reaped child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def canonical(record: Any) -> str:
    """The byte form records are compared in: sorted-key JSON."""
    return json.dumps(record, sort_keys=True)


def strict_json(record: dict) -> dict:
    """A record as the service streams it (NaN -> null, numpy -> Python)."""
    from repro.runner import CampaignResult

    return json.loads(CampaignResult(records=[record]).to_json())["records"][0]


def event_loop_mismatches(pairs) -> int:
    """Re-run ``(spec, record)`` pairs on the discrete-event loop; count diffs."""
    from repro.runner import execute_run

    mismatches = 0
    for spec, record in pairs:
        reference = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, fast_path=False))
        if canonical(execute_run(reference)) != canonical(record):
            mismatches += 1
    return mismatches
