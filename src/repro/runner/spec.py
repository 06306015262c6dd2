"""Declarative run specifications: one simulation cell, or a whole campaign.

A :class:`RunSpec` is everything needed to reproduce one simulation run —
scenario spec, strategy name + parameters, simulator config and the
replication seed — as plain data.  A :class:`CampaignSpec` is a parameter
grid over a base :class:`RunSpec` crossed with a replication count.  Both
round-trip losslessly through JSON, so arbitrary workloads can be authored as
data files and executed with ``python -m repro run spec.json`` or through
:class:`repro.runner.Campaign` — no code changes required.

Scenarios are described by :class:`repro.scenarios.ScenarioSpec` — a
registered family name plus its declared parameters.  Legacy
:class:`~repro.workloads.generator.ScenarioConfig` objects and legacy JSON
scenario dicts (bare config fields, no ``"family"`` key) are converted
transparently and generate byte-identical scenarios.

Grid axes are addressed by name:

* ``"strategy"`` — the strategy registry name;
* ``"scenario.family"`` — the scenario family registry name
  (``"distribution"`` is accepted as a legacy spelling);
* ``"scenario.<param>"`` / ``"sim.<field>"`` / ``"params.<name>"`` — an
  explicit scope;
* a bare name (``"num_targets"``, ``"horizon"``, ``"policy"``) — resolved to
  the scenario spec if it is a parameter declared by one of the campaign's
  scenario families, else to the simulator config if it is a
  :class:`SimulationConfig` field, else to the strategy parameters.

When a campaign fans one parameter set out over several strategies (or
scenario families), each cell keeps only the parameters its strategy
(family) declares — see :func:`repro.baselines.base.filter_strategy_kwargs`
and :func:`repro.scenarios.filter_scenario_kwargs` — and strategies that
declare a ``seed`` parameter (the Random baseline) receive the cell's
replication seed automatically.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.baselines.base import (
    canonical_strategy_name,
    filter_strategy_kwargs,
    seeded_params,
    strategy_info,
    strategy_params,
    validate_strategy_params,
)
from repro.network.scenario import SimulationParameters
from repro.planning.stages import STAGE_KINDS
from repro.runner.record_metrics import available_metrics, metric_name
from repro.scenarios.registry import scenario_family_params
from repro.scenarios.spec import ScenarioSpec, spec_from_scenario_config
from repro.sim.engine import SimulationConfig
from repro.workloads.generator import ScenarioConfig

__all__ = ["RunSpec", "CampaignSpec", "load_spec", "spec_from_dict"]

_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(ScenarioConfig))
_SIM_FIELDS = frozenset(f.name for f in dataclasses.fields(SimulationConfig))
_PARAMS_FIELDS = frozenset(f.name for f in dataclasses.fields(SimulationParameters))

# Axis names that set the scenario family; "distribution" is the legacy
# ScenarioConfig spelling kept for backwards compatibility.
_FAMILY_AXES = ("family", "distribution")


# --------------------------------------------------------------------------- #
# (de)serialisation helpers
# --------------------------------------------------------------------------- #

def _check_keys(data: Mapping[str, Any], allowed: frozenset[str], what: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} field(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _scenario_to_dict(spec: ScenarioSpec) -> dict:
    data = spec.to_dict()
    if data == {"family": "uniform"}:  # default scenario: keep the JSON lean
        return {}
    return data


def _scenario_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Parse a scenario spec dict; legacy config dicts (no ``family``) still load."""
    if "family" in data:
        return ScenarioSpec.from_dict(data)
    payload = dict(data)
    _check_keys(payload, _SCENARIO_FIELDS, "scenario")
    params = payload.pop("params", None)
    if params is not None and not isinstance(params, SimulationParameters):
        _check_keys(params, _PARAMS_FIELDS, "scenario.params")
        payload["params"] = SimulationParameters(**params)
    elif params is not None:
        payload["params"] = params
    for key in ("sink_position", "recharge_position"):
        if payload.get(key) is not None:
            payload[key] = tuple(payload[key])
    return spec_from_scenario_config(ScenarioConfig(**payload))


def _sim_to_dict(cfg: SimulationConfig) -> dict:
    data = dataclasses.asdict(cfg)
    default = SimulationConfig()
    for f in dataclasses.fields(SimulationConfig):
        if data.get(f.name) == getattr(default, f.name):
            data.pop(f.name)
    return data


def _sim_from_dict(data: Mapping[str, Any]) -> SimulationConfig:
    _check_keys(data, _SIM_FIELDS, "sim")
    return SimulationConfig(**data)


def _normalize_metric(entry: Any) -> "str | tuple[str, dict]":
    """Metric entries are ``"name"`` or ``("name", {params})`` (lists from JSON)."""
    if isinstance(entry, str):
        return entry
    name, params = entry
    return (str(name), dict(params))


# --------------------------------------------------------------------------- #
# RunSpec
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class RunSpec:
    """One fully specified simulation run, as data.

    Attributes
    ----------
    strategy:
        Registry name (aliases accepted, e.g. ``"btctp"``).
    scenario:
        The scenario spec (family + declared params); a legacy
        :class:`ScenarioConfig` is converted on construction.
    params:
        Keyword parameters for the strategy factory.
    sim:
        Simulator config (horizon, energy tracking, ...).
    seed:
        Seed for scenario generation (unless the scenario spec pins its own)
        and, for strategies that declare a ``seed`` parameter, the strategy
        itself.
    metrics:
        Extra metric extractors to evaluate on the finished run, by name
        (see :mod:`repro.runner.record_metrics`); entries may also be
        ``(name, {param: value})`` pairs.
    labels:
        Free-form key/value cell coordinates copied into the result record
        (campaigns use this for the grid axes and the replication index).
    """

    strategy: str
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    params: Mapping[str, Any] = field(default_factory=dict)
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    seed: int = 0
    metrics: tuple = ()
    labels: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.scenario, ScenarioConfig):  # legacy configs keep working
            object.__setattr__(self, "scenario", spec_from_scenario_config(self.scenario))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "labels", dict(self.labels))
        object.__setattr__(
            self, "metrics", tuple(_normalize_metric(m) for m in self.metrics)
        )

    # -- serialisation --------------------------------------------------- #
    def to_dict(self) -> dict:
        data: dict[str, Any] = {"kind": "run", "strategy": self.strategy, "seed": self.seed}
        scenario = _scenario_to_dict(self.scenario)
        if scenario:
            data["scenario"] = scenario
        if self.params:
            data["params"] = dict(self.params)
        sim = _sim_to_dict(self.sim)
        if sim:
            data["sim"] = sim
        if self.metrics:
            data["metrics"] = [list(m) if isinstance(m, tuple) else m for m in self.metrics]
        if self.labels:
            data["labels"] = dict(self.labels)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        payload = dict(data)
        payload.pop("kind", None)
        _check_keys(payload, frozenset(f.name for f in dataclasses.fields(cls)), "run spec")
        if "scenario" in payload and not isinstance(
            payload["scenario"], (ScenarioSpec, ScenarioConfig)
        ):
            payload["scenario"] = _scenario_from_dict(payload["scenario"])
        if "sim" in payload and not isinstance(payload["sim"], SimulationConfig):
            payload["sim"] = _sim_from_dict(payload["sim"])
        if "metrics" in payload:
            payload["metrics"] = tuple(_normalize_metric(m) for m in payload["metrics"])
        return cls(**payload)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    # -- derived --------------------------------------------------------- #
    def canonical_strategy(self) -> str:
        return canonical_strategy_name(self.strategy)

    def validate(self) -> "RunSpec":
        """Raise :class:`ValueError` on an unknown strategy/family or undeclared params.

        Use this on hand-written single-run specs, where a typo'd parameter
        should surface instead of being filtered away by campaign expansion.
        """
        # Unknown strategy, undeclared params, out-of-range values (via the
        # strategy's registered validator) — all before any simulation.
        validate_strategy_params(self.strategy, self.params)
        self.scenario.validate()  # unknown family / undeclared or out-of-range params
        self.validate_metrics()
        return self

    def validate_metrics(self) -> "RunSpec":
        """Reject unknown metric names *before* any simulation work is spent."""
        known = set(available_metrics())
        unknown = sorted(set(metric_name(m) for m in self.metrics) - known)
        if unknown:
            raise ValueError(
                f"unknown metric(s) {', '.join(repr(m) for m in unknown)}; "
                f"available: {', '.join(sorted(known))}"
            )
        return self

    def with_strategy_defaults(self) -> "RunSpec":
        """Filter params to the strategy's declared set and inject the seed.

        Every cell a campaign expands equals this applied to it (expansion
        builds it in one step), so a shared parameter set works across
        strategies with different signatures; the Random
        baseline (the only default strategy declaring ``seed``) receives the
        cell's replication seed unless one was given explicitly.
        """
        params = filter_strategy_kwargs(self.strategy, self.params)
        return replace(self, params=seeded_params(self.strategy, params, self.seed))


# --------------------------------------------------------------------------- #
# CampaignSpec
# --------------------------------------------------------------------------- #

def _apply_axis(
    spec: RunSpec, axis: str, value: Any, scenario_params: frozenset[str]
) -> RunSpec:
    """Set one grid-axis value on a run spec (see the module docstring).

    ``scenario_params`` is the set of parameter names that resolve to the
    scenario scope for *bare* axis names — the union over every family the
    campaign sweeps.
    """
    if axis == "strategy":
        return replace(spec, strategy=str(value))
    if axis == "seed":
        return replace(spec, seed=int(value))
    scope, _, name = axis.partition(".")
    if not name:
        scope, name = "", axis
    if name in _FAMILY_AXES and scope in ("", "scenario"):
        return replace(spec, scenario=replace(spec.scenario, family=str(value)))
    if scope == "scenario" and name == "seed":
        return replace(spec, scenario=replace(spec.scenario, seed=value))
    if scope == "scenario" or (not scope and name in scenario_params):
        return replace(spec, scenario=spec.scenario.with_params(**{name: value}))
    if scope == "sim" or (not scope and name in _SIM_FIELDS):
        return replace(spec, sim=replace(spec.sim, **{name: value}))
    if scope == "plan":
        # "plan.tour" / "plan.order" / ...: a planning-pipeline stage axis.
        # Stage axes are strategy parameters of the same name (the 'pipeline'
        # strategy declares all four), so they sweep like any other param.
        if name not in STAGE_KINDS:
            raise ValueError(
                f"unknown grid axis {axis!r}: 'plan.' axes must name a pipeline "
                f"stage ({', '.join(STAGE_KINDS)})"
            )
        return replace(spec, params={**spec.params, name: value})
    if scope in ("", "params"):
        return replace(spec, params={**spec.params, name: value})
    raise ValueError(
        f"unknown grid axis {axis!r}: use 'strategy', 'seed', 'scenario.family', a "
        "scenario/sim field name, a 'plan.<stage>' axis, or an explicit "
        "'scenario.'/'sim.'/'params.' prefix"
    )


@dataclass(frozen=True)
class CampaignSpec:
    """A parameter grid over a base run spec, crossed with replications.

    ``grid`` maps axis names to value lists; cells are the cartesian product
    of the axes (in declaration order), each repeated ``replications`` times
    with seeds ``base.seed + k * seed_stride`` — the same seed schedule as
    :func:`repro.experiments.common.replicate_seeds`.
    """

    base: RunSpec
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    replications: int = 1
    seed_stride: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", {k: list(v) for k, v in dict(self.grid).items()})
        if self.replications < 1:
            raise ValueError("replications must be >= 1")

    # -- serialisation --------------------------------------------------- #
    def to_dict(self) -> dict:
        data: dict[str, Any] = {"kind": "campaign", "base": self.base.to_dict()}
        data["base"].pop("kind", None)
        if self.grid:
            data["grid"] = {k: list(v) for k, v in self.grid.items()}
        if self.replications != 1:
            data["replications"] = self.replications
        if self.seed_stride != 1000:
            data["seed_stride"] = self.seed_stride
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        payload = dict(data)
        payload.pop("kind", None)
        _check_keys(payload, frozenset(f.name for f in dataclasses.fields(cls)), "campaign spec")
        base = payload.get("base", {})
        if not isinstance(base, RunSpec):
            payload["base"] = RunSpec.from_dict(base)
        return cls(**payload)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    # -- expansion ------------------------------------------------------- #
    def seeds(self, *, base_seed: int | None = None) -> list[int]:
        """The per-replication seed schedule (starting at the base spec's seed)."""
        first = self.base.seed if base_seed is None else base_seed
        return [first + k * self.seed_stride for k in range(self.replications)]

    def _campaign_strategies(self) -> list[str]:
        """Every strategy any cell of this campaign can run."""
        return [str(s) for s in self.grid.get("strategy", [self.base.strategy])]

    def _campaign_scenario_families(self) -> list[str]:
        """Every scenario family any cell of this campaign can use."""
        for axis in ("scenario.family", "scenario.distribution", "family", "distribution"):
            if axis in self.grid:
                return [str(f) for f in self.grid[axis]]
        return [self.base.scenario.family]

    def _campaign_scenario_params(self) -> frozenset[str]:
        """Union of the parameters declared by the campaign's scenario families.

        Raises the registry's clean :class:`ValueError` when a family (from
        the base spec or a family axis) does not exist — a typo'd family is
        rejected before any simulation runs.
        """
        names: set[str] = set()
        for family in self._campaign_scenario_families():
            names |= scenario_family_params(family)
        return frozenset(names)

    def _validate_axes(self, scenario_params: frozenset[str]) -> None:
        """Reject axis names that would silently sweep nothing.

        A bare or ``params.``-scoped name that is not a parameter declared by
        at least one of the campaign's strategies would be filtered out of
        every cell — N identical runs labelled as a sweep.  Catch the typo
        here.  The same applies to ``scenario.``-scoped names and the
        campaign's scenario families.  (``sim.`` axes fail naturally at
        expansion if the field does not exist; non-strict strategies accept
        anything.)
        """
        strategies = self._campaign_strategies()
        strict = all(strategy_info(s).strict for s in strategies)
        for axis in self.grid:
            scope, _, name = axis.partition(".")
            if not name:
                scope, name = "", axis
            if scope and scope not in ("scenario", "sim", "params", "plan"):
                raise ValueError(
                    f"unknown grid axis {axis!r}: use 'strategy', 'seed', "
                    "'scenario.family', a scenario/sim field name, a 'plan.<stage>' "
                    "axis, or an explicit 'scenario.'/'sim.'/'params.' prefix"
                )
            if scope == "scenario":
                if name in _FAMILY_AXES or name == "seed" or name in scenario_params:
                    continue
                families = self._campaign_scenario_families()
                raise ValueError(
                    f"grid axis {axis!r} names a parameter declared by none of the "
                    f"campaign's scenario families ({', '.join(repr(f) for f in families)})"
                )
            if scope == "plan" and name not in STAGE_KINDS:
                raise ValueError(
                    f"unknown grid axis {axis!r}: 'plan.' axes must name a pipeline "
                    f"stage ({', '.join(STAGE_KINDS)})"
                )
            if scope == "sim" or (not scope and name in ("strategy", "seed")):
                continue
            if not scope and (name in _FAMILY_AXES or name in scenario_params
                              or name in _SIM_FIELDS):
                continue
            if not strict or any(name in strategy_params(s) for s in strategies):
                continue
            if scope == "plan":
                raise ValueError(
                    f"grid axis {axis!r} sweeps a pipeline stage, but none of "
                    f"{', '.join(repr(s) for s in strategies)} declares a {name!r} "
                    "parameter — use the 'pipeline' strategy for stage sweeps"
                )
            if scope == "params":
                raise ValueError(
                    f"grid axis {axis!r} names a parameter declared by none of "
                    f"{', '.join(repr(s) for s in strategies)} — the sweep would "
                    "run identical cells"
                )
            raise ValueError(
                f"grid axis {axis!r} matches no scenario/sim field and no parameter "
                f"declared by {', '.join(repr(s) for s in strategies)}; use an explicit "
                "'scenario.' or 'sim.' prefix for a shadowed field name"
            )

    def _validate_base_params(self) -> None:
        """A base param no campaign strategy accepts is a typo, not a no-op.

        Shared params are *filtered* per cell so multi-strategy sweeps work,
        but a key that every strategy in the campaign would drop can only be
        a mistake (``"polcy"``) — reject it like :meth:`RunSpec.validate`
        does for single runs.  Skipped when a non-strict (``**kwargs``)
        strategy is in play, since such a strategy accepts anything.
        """
        strategies = self._campaign_strategies()
        if not all(strategy_info(s).strict for s in strategies):
            return
        grid_params = {axis.partition(".")[2] or axis for axis in self.grid}
        for key in self.base.params:
            if key in grid_params or key == "seed":
                continue
            if not any(key in strategy_params(s) for s in strategies):
                raise ValueError(
                    f"base param {key!r} is not accepted by any campaign strategy "
                    f"({', '.join(repr(s) for s in strategies)})"
                )

    def _validate_base_scenario_params(self, scenario_params: frozenset[str]) -> None:
        """A base scenario param no campaign family accepts is a typo.

        Scenario params are *filtered* per cell so ``scenario.family`` sweeps
        work, but a key that every family in the campaign would drop can only
        be a mistake (``"num_tragets"``) — reject it before simulating.
        """
        for key in self.base.scenario.params:
            if key in scenario_params:
                continue
            families = self._campaign_scenario_families()
            raise ValueError(
                f"base scenario param {key!r} is not accepted by any campaign "
                f"scenario family ({', '.join(repr(f) for f in families)})"
            )

    def cells(self) -> list[RunSpec]:
        """Expand the grid into the ordered list of fully specified run cells.

        Ordering is deterministic — axes vary slowest-first in declaration
        order, replications innermost — so results line up regardless of how
        the cells are executed.  A ``"seed"`` axis shifts the whole
        replication seed schedule of its cells (it is not recorded as a
        label: the record's ``seed`` column already carries the true value).

        Every cell's scenario spec is restricted to its family's declared
        parameters and validated here — an unknown family, a typo'd parameter
        or an out-of-range value surfaces before any simulation starts.

        The replications of one grid combination are clones of its validated
        cell: its dataclass fields are copied (never its ``__dict__``, which
        may hold a memoised fingerprint payload) and no ``__post_init__``
        runs again, so each cell pays only for its seed, labels and params.
        """
        scenario_params = self._campaign_scenario_params()  # raises on unknown family
        self._validate_axes(scenario_params)
        self._validate_base_params()
        self._validate_base_scenario_params(scenario_params)
        self.base.validate_metrics()
        axes = list(self.grid.items())
        cells: list[RunSpec] = []
        for combo in itertools.product(*(values for _, values in axes)):
            spec = self.base
            labels = dict(self.base.labels)
            for (axis, _), value in zip(axes, combo):
                spec = _apply_axis(spec, axis, value, scenario_params)
                if axis != "seed":
                    labels[axis] = value
            spec = replace(spec, scenario=spec.scenario.restricted_to_family().validate())
            # Strategy-side pre-run validation, symmetric to the scenario
            # validation above: a typo'd stage name or out-of-range strategy
            # param in any cell fails here, before any simulation runs.  The
            # validator sees the params the cells will actually carry (the
            # strategy's declared subset of the shared parameter set).
            params = filter_strategy_kwargs(spec.strategy, spec.params)
            validate_strategy_params(spec.strategy, params)
            # Each replication is with_strategy_defaults() of its seeded spec:
            # a clone of this validated cell with its own seed, labels and
            # seeded params (the filtered params are the same for all).
            cls = type(spec)
            template = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
            for k, seed in enumerate(self.seeds(base_seed=spec.seed)):
                cell = object.__new__(cls)
                vars(cell).update(template, seed=seed, labels={**labels, "replication": k},
                                  params=seeded_params(spec.strategy, params, seed))
                cells.append(cell)
        return cells


# --------------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------------- #

def spec_from_dict(data: Mapping[str, Any]) -> "RunSpec | CampaignSpec":
    """Build a :class:`RunSpec` or :class:`CampaignSpec` from a plain dict.

    The ``"kind"`` field ("run" / "campaign") decides; without it, the
    presence of campaign-only fields (``base``, ``grid``, ``replications``)
    does.
    """
    kind = data.get("kind")
    if kind == "campaign" or (
        kind is None and ({"base", "grid", "replications"} & set(data))
    ):
        return CampaignSpec.from_dict(data)
    if kind in (None, "run"):
        return RunSpec.from_dict(data)
    raise ValueError(f"unknown spec kind {kind!r}; expected 'run' or 'campaign'")


def load_spec(path: "str | Path") -> "RunSpec | CampaignSpec":
    """Load a run or campaign spec from a JSON file."""
    return spec_from_dict(json.loads(Path(path).read_text()))
