"""The rule catalog of the self-checking layer: one id per checkable predicate.

Every analyzer in :mod:`repro.analysis` emits findings tagged with a rule id
from this catalog.  The ids are stable, kebab-case strings — they appear in
``# repro: allow[rule-id]`` suppression comments, in the committed baseline
file, in ``repro-patrol check --only`` filters and in ``docs/ANALYSIS.md`` —
so renaming one is a breaking change to every suppression that names it.

The catalog groups into four analyzers:

* ``registry`` — the four declaration registries (strategies, scenario
  families, planning-stage backends, serve transports) must keep their
  declared contracts in sync with the factories behind them;
* ``determinism`` — registered code paths must stay reproducible: seeded
  RNGs only, no wall clock, no set-iteration order, no environment branches;
* ``fingerprint`` — every spec dataclass field must flow into the run
  fingerprint (or be exempted with a reason), so the content-addressed
  result store can never serve stale hits after a schema change;
* ``schema`` — the round-trippable spec dataclasses must match their
  committed golden schemas, so wire-format drift is always a reviewed diff.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Rule", "RULES", "RULE_IDS", "ANALYZERS", "rules_for_analyzer"]


@dataclass(frozen=True)
class Rule:
    """One checkable predicate: stable id, owning analyzer, summary."""

    id: str
    analyzer: str
    summary: str


RULES: tuple[Rule, ...] = (
    # -- registry contract ------------------------------------------------ #
    Rule("registry-signature-drift", "registry",
         "declared strategy parameters differ from the factory signature"),
    Rule("registry-undeclared-kwargs", "registry",
         "registered factory takes **kwargs with no declared parameter set"),
    Rule("registry-alias-shadow", "registry",
         "two registry entries collide once separators are normalised"),
    Rule("registry-docstring-drift", "registry",
         "factory docstring Parameters section disagrees with the declared table"),
    Rule("registry-mutable-default", "registry",
         "declared parameter default is mutable (shared-state hazard)"),
    Rule("registry-missing-description", "registry",
         "registry entry has no description (listings show an empty row)"),
    Rule("registry-param-ambiguity", "registry",
         "parameter name collides with a SimulationConfig field (bare grid "
         "axes resolve scenario > sim > strategy, silently shadowing)"),
    # -- determinism ------------------------------------------------------ #
    Rule("det-unseeded-random", "determinism",
         "stdlib random module-level call (process-global, unseeded RNG)"),
    Rule("det-global-np-random", "determinism",
         "legacy numpy global RNG call (np.random.*) instead of default_rng(seed)"),
    Rule("det-wall-clock", "determinism",
         "wall-clock read (time.time / datetime.now / ...) in a registered code path"),
    Rule("det-set-iteration", "determinism",
         "direct iteration over a set (iteration order is not deterministic)"),
    Rule("det-env-branch", "determinism",
         "environment-dependent value (os.environ / os.getenv) in a registered code path"),
    # -- fingerprint coverage --------------------------------------------- #
    Rule("fpr-uncovered-field", "fingerprint",
         "spec dataclass field neither hashed by run_fingerprint nor exempted"),
    Rule("fpr-stale-entry", "fingerprint",
         "fingerprint coverage/exemption entry names a field that no longer exists"),
    Rule("fpr-unread-field", "fingerprint",
         "coverage claims a field is hashed but the canonicaliser never reads it"),
    # -- spec schema drift ------------------------------------------------ #
    Rule("schema-drift", "schema",
         "round-trippable spec schema differs from the committed golden schema"),
    Rule("schema-missing-golden", "schema",
         "spec class has no committed golden schema (or the golden names a "
         "class that no longer exists)"),
)

RULE_IDS: frozenset[str] = frozenset(rule.id for rule in RULES)
ANALYZERS: tuple[str, ...] = ("registry", "determinism", "fingerprint", "schema")


def rules_for_analyzer(analyzer: str) -> tuple[Rule, ...]:
    """The catalog rules owned by one analyzer (see :data:`ANALYZERS`)."""
    if analyzer not in ANALYZERS:
        raise ValueError(
            f"unknown analyzer {analyzer!r}; expected one of {', '.join(ANALYZERS)}"
        )
    return tuple(rule for rule in RULES if rule.analyzer == analyzer)
