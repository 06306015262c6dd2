"""Registry-contract checker: declarations must match the factories behind them.

The repo names its pluggable parts through four declaration registries —
strategies (:mod:`repro.baselines.base`), scenario families
(:mod:`repro.scenarios.registry`), planning-stage backends
(:mod:`repro.planning.stages`) and serve transports
(:mod:`repro.service.registry`), all instances of
:class:`repro.registry.Registry`.  Campaign validation, grid-axis resolution
and the CLI listings all *trust* those declarations; this checker makes the
trust checkable:

* an explicitly declared strategy parameter set that drifted from the
  factory signature (``registry-signature-drift``);
* a registered factory taking ``**kwargs`` with no declared parameter set,
  so validation silently accepts anything (``registry-undeclared-kwargs``);
* two entries whose names/aliases collide once ``-``/``_`` separators are
  normalised — alias resolution is case-insensitive but not
  separator-insensitive, so ``grid_jitter`` and ``grid-jitter`` living in
  different entries would be a user trap (``registry-alias-shadow``);
* a factory docstring whose NumPy-style ``Parameters`` section documents
  parameters the registry does not declare, or vice versa
  (``registry-docstring-drift``);
* mutable declared defaults (``registry-mutable-default``), missing
  descriptions (``registry-missing-description``), and parameter names that
  collide with :class:`~repro.sim.engine.SimulationConfig` fields — bare
  campaign grid axes resolve scenario > sim > strategy, so such a name
  silently shadows one layer (``registry-param-ambiguity``).

Everything here is introspection over the live registries plus light
docstring parsing; no simulation runs.  The rules every registry shares run
in one loop; signature drift, undeclared ``**kwargs`` and parameter
ambiguity are specific to the registries they concern.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.analysis.findings import Finding

__all__ = ["check_registries", "documented_params", "factory_location"]

_MUTABLE_TYPES = (list, dict, set, bytearray)


def factory_location(factory: Callable) -> tuple[str, int]:
    """``(repo-relative path, first line)`` of a factory, best effort.

    Wrapped factories (``functools.wraps`` builders) are unwrapped first so
    the finding points at the code a human would edit.  Uninspectable
    factories anchor at line 0 of an empty path.
    """
    target = inspect.unwrap(factory)
    try:
        source_file = inspect.getsourcefile(target)
        _, lineno = inspect.getsourcelines(target)
    except (OSError, TypeError):
        return "", 0
    if source_file is None:  # pragma: no cover - C-level factory
        return "", 0
    return relative_to_repo(source_file), lineno


def relative_to_repo(source_file: "str | Path") -> str:
    """Render a source path repo-relative (``src/repro/...``) when possible."""
    path = Path(source_file).resolve()
    for ancestor in path.parents:
        if ancestor.name == "src" and (ancestor / "repro").is_dir():
            return path.relative_to(ancestor.parent).as_posix()
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


_SECTION_RE = re.compile(r"^\s*Parameters\s*$")
_UNDERLINE_RE = re.compile(r"^\s*-{3,}\s*$")
# One entry may document several parameters: ``tsp_method, improve_tour : ...``
_ENTRY_RE = re.compile(r"^(\*{0,2}\w+(?:\s*,\s*\*{0,2}\w+)*)\s*(?::.*)?$")


def documented_params(docstring: "str | None") -> "frozenset[str] | None":
    """Names documented by a NumPy-style ``Parameters`` section, or ``None``.

    ``None`` means the docstring has no ``Parameters`` section at all — no
    drift can be diagnosed.  ``*args`` / ``**kwargs`` entries are stripped of
    their stars.  Only entries at the section's own indentation count;
    deeper-indented lines are descriptions.
    """
    if not docstring:
        return None
    lines = inspect.cleandoc(docstring).splitlines()
    names: set[str] = set()
    in_section = False
    section_found = False
    entry_indent: "int | None" = None
    for index, line in enumerate(lines):
        if not in_section:
            if _SECTION_RE.match(line) and index + 1 < len(lines) \
                    and _UNDERLINE_RE.match(lines[index + 1]):
                in_section = True
                section_found = True
            continue
        if _UNDERLINE_RE.match(line):
            continue
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        if entry_indent is None:
            entry_indent = indent
        if indent > entry_indent:
            continue  # description / continuation
        if indent < entry_indent:
            break  # dedent: the section ended
        match = _ENTRY_RE.match(line.strip())
        if match is None:
            break  # a new section header ("Returns", ...) ends Parameters
        for part in match.group(1).split(","):
            names.add(part.strip().lstrip("*"))
    return frozenset(names) if section_found else None


def _normalize(name: str) -> str:
    return name.replace("-", "").replace("_", "")


def _alias_shadow_findings(
    what: str, alias_table: Mapping[str, str], infos: Mapping[str, Any]
) -> list[Finding]:
    """Entries whose accepted keys collide once separators are normalised."""
    findings: list[Finding] = []
    normalized: dict[str, tuple[str, str]] = {}  # normal form -> (key, canonical)
    for key in sorted(alias_table):
        canonical = alias_table[key]
        form = _normalize(key)
        seen = normalized.get(form)
        if seen is None:
            normalized[form] = (key, canonical)
        elif seen[1] != canonical:
            path, line = factory_location(infos[canonical].factory)
            findings.append(Finding(
                rule="registry-alias-shadow", path=path, line=line,
                message=f"{what} key {key!r} (-> {canonical!r}) normalises to the "
                        f"same name as {seen[0]!r} (-> {seen[1]!r}); separator "
                        "spelling would silently pick a different entry",
            ))
    return findings


def _docstring_drift_findings(
    what: str, name: str, factory: Callable, declared: Iterable[str], inject: "str | None"
) -> list[Finding]:
    documented = documented_params(inspect.getdoc(inspect.unwrap(factory)))
    if documented is None:
        return []
    path, line = factory_location(factory)
    findings = []
    # The argument the registry injects (seed, context, scheduler) may be
    # documented without being declared.
    for param in sorted(documented - set(declared) - {inject}):
        findings.append(Finding(
            rule="registry-docstring-drift", path=path, line=line,
            message=f"{what} {name!r} documents parameter {param!r} that the "
                    "registry does not declare",
        ))
    for param in sorted(set(declared) - documented):
        findings.append(Finding(
            rule="registry-docstring-drift", path=path, line=line,
            message=f"{what} {name!r} declares parameter {param!r} that its "
                    "docstring Parameters section does not document",
        ))
    return findings


def _sim_field_names() -> frozenset[str]:
    import dataclasses

    from repro.sim.engine import SimulationConfig

    return frozenset(f.name for f in dataclasses.fields(SimulationConfig))


def _shared_findings(
    registry: Any, infos: Mapping[str, Any], aliases: Mapping[str, str]
) -> list[Finding]:
    """The rules every registry shares: alias shadow, description, docstring, defaults."""
    what = registry.noun
    findings = _alias_shadow_findings(what, aliases, infos)
    for name in sorted(infos):
        info = infos[name]
        path, line = factory_location(info.factory)
        if not info.description.strip():
            findings.append(Finding(
                rule="registry-missing-description", path=path, line=line,
                message=f"{what} {name!r} has no description",
            ))
        findings += _docstring_drift_findings(
            what, name, info.factory, info.params, registry.inject
        )
        for param, default in sorted(info.defaults().items()):
            if isinstance(default, _MUTABLE_TYPES):
                findings.append(Finding(
                    rule="registry-mutable-default", path=path, line=line,
                    message=f"{what} {name!r} declares parameter {param!r} with "
                            f"mutable default {default!r}; one shared instance "
                            "leaks state across builds",
                ))
    return findings


def _strategy_findings(strategies: Mapping[str, Any], sim_fields: frozenset[str]) -> list[Finding]:
    from repro.baselines.base import derived_strategy_params

    findings: list[Finding] = []
    for name in sorted(strategies):
        info = strategies[name]
        path, line = factory_location(info.factory)
        derived, derived_strict = derived_strategy_params(info.factory)
        if not info.strict:
            findings.append(Finding(
                rule="registry-undeclared-kwargs", path=path, line=line,
                message=f"strategy {name!r} is registered without a declared "
                        "parameter set (**kwargs factory): validation accepts "
                        "anything, so typos reach the factory",
            ))
        elif derived_strict and derived != info.params:
            missing = sorted(info.params - derived)
            extra = sorted(derived - info.params)
            detail = "; ".join(
                part for part in (
                    f"declared but not accepted: {', '.join(missing)}" if missing else "",
                    f"accepted but not declared: {', '.join(extra)}" if extra else "",
                ) if part
            )
            findings.append(Finding(
                rule="registry-signature-drift", path=path, line=line,
                message=f"strategy {name!r} declared parameters drifted from "
                        f"the factory signature ({detail})",
            ))
        for param in sorted(info.params & sim_fields):
            findings.append(Finding(
                rule="registry-param-ambiguity", path=path, line=line,
                message=f"strategy {name!r} parameter {param!r} collides with a "
                        "SimulationConfig field; a bare campaign grid axis "
                        f"{param!r} resolves to sim.{param}, never reaching the "
                        "strategy",
            ))
    return findings


def _scenario_findings(scenarios: Mapping[str, Any], sim_fields: frozenset[str]) -> list[Finding]:
    findings: list[Finding] = []
    for name in sorted(scenarios):
        info = scenarios[name]
        path, line = factory_location(info.factory)
        for param in sorted(set(info.params) & sim_fields):
            findings.append(Finding(
                rule="registry-param-ambiguity", path=path, line=line,
                message=f"scenario family {name!r} parameter {param!r} collides "
                        "with a SimulationConfig field; a bare campaign grid "
                        f"axis {param!r} resolves to the scenario, silently "
                        f"shadowing sim.{param}",
            ))
    return findings


def check_registries(
    *,
    strategies: "Mapping[str, Any] | None" = None,
    strategy_aliases: "Mapping[str, str] | None" = None,
    scenarios: "Mapping[str, Any] | None" = None,
    scenario_aliases: "Mapping[str, str] | None" = None,
    stages: "Mapping[str, Mapping[str, Any]] | None" = None,
    transports: "Mapping[str, Any] | None" = None,
    transport_aliases: "Mapping[str, str] | None" = None,
) -> list[Finding]:
    """Run every registry-contract rule over the four registries.

    All parameters default to the live registries; tests inject synthetic
    info tables to seed violations without registering anything for real —
    registrations are permanent, so polluting the live registries from a
    test would leak into every later listing.
    """
    from repro.baselines.base import STRATEGIES
    from repro.planning.stages import STAGES
    from repro.scenarios.registry import SCENARIOS
    from repro.service.registry import TRANSPORTS

    def tables(registry, infos=None, aliases=None):
        """``(registry, infos, alias table)``: the live tables unless injected."""
        if infos is None:
            return registry, registry.infos(), registry.alias_table()
        return registry, infos, aliases if aliases is not None else {name: name for name in infos}

    checked = [
        tables(STRATEGIES, strategies, strategy_aliases),
        tables(SCENARIOS, scenarios, scenario_aliases),
        *([tables(STAGES[kind], infos) for kind, infos in stages.items()]
          if stages is not None else [tables(registry) for registry in STAGES.values()]),
        tables(TRANSPORTS, transports, transport_aliases),
    ]
    findings: list[Finding] = []
    for registry, infos, aliases in checked:
        findings += _shared_findings(registry, infos, aliases)
    (_, strategy_infos, _), (_, scenario_infos, _) = checked[:2]
    sim_fields = _sim_field_names()
    findings += _strategy_findings(strategy_infos, sim_fields)
    findings += _scenario_findings(scenario_infos, sim_fields)
    return findings
