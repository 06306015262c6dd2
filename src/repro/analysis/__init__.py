"""Analytic models of the algorithms, and the repo's self-checking layer.

The simulator measures; this subpackage *predicts and verifies*.

:mod:`repro.analysis.theory` holds the closed forms of the patrolling
algorithms — per-target visit phases, visiting intervals, SD, lower bounds
on the achievable interval — so tests and users can cross-check the
discrete-event simulation against theory.

The rest of the subpackage is the static self-checking layer behind
``repro-patrol check`` (see ``docs/ANALYSIS.md``): the repo's correctness
invariants — registry declarations match factory signatures, registered
code paths stay deterministic, every spec field reaches the run
fingerprint, the spec wire format matches its committed golden — verified
as local, checkable predicates over the live registries and the AST, the
same "global property as locally checkable predicate" move that makes
lattice-linear predicate detection tractable:

* :mod:`repro.analysis.rules` — the stable rule catalog;
* :mod:`repro.analysis.findings` — findings, suppressions, the baseline;
* :mod:`repro.analysis.registry_contract` — the four registries;
* :mod:`repro.analysis.determinism` — the AST determinism lint;
* :mod:`repro.analysis.fingerprint_coverage` — store-poisoning prevention;
* :mod:`repro.analysis.schema_drift` — golden wire-format schemas;
* :mod:`repro.analysis.check` — the orchestrator the CLI calls.
"""

from repro.analysis.check import CheckReport, run_check
from repro.analysis.findings import Finding
from repro.analysis.rules import RULES, Rule
from repro.analysis.theory import (
    PatrolAnalysis,
    analyze_loop,
    interval_lower_bound,
    predicted_interval_btctp,
    predicted_sd_for_offsets,
    vip_visit_offsets,
)

__all__ = [
    "PatrolAnalysis",
    "analyze_loop",
    "interval_lower_bound",
    "predicted_interval_btctp",
    "predicted_sd_for_offsets",
    "vip_visit_offsets",
    "CheckReport",
    "run_check",
    "Finding",
    "Rule",
    "RULES",
]
