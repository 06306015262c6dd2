"""Common strategy interface and the strategy registry.

Every strategy in the library — the three TCTP variants, the three
baselines and the cross-combined compositions — is a
:class:`~repro.planning.PlanningPipeline` built by a function of
:mod:`repro.planning.compositions`, and satisfies the small
:class:`PatrolStrategy` protocol: a ``name`` and a ``plan(scenario)`` method
returning a :class:`~repro.core.plan.PatrolPlan`.  The registry lets
experiments, the CLI and the :mod:`repro.runner` campaign executor refer to
strategies by name.

Each registration carries a :class:`StrategyInfo` record declaring the
keyword parameters the factory accepts and the aliases it answers to, so
callers can validate or filter parameter dictionaries *before* instantiating
a planner — declarative run specs rely on this to share one parameter set
across strategies that accept different subsets of it.  The table itself is
a :class:`repro.registry.Registry`, the shape all four registries share.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, ClassVar, Mapping, Protocol, runtime_checkable

from repro.core.plan import PatrolPlan
from repro.network.scenario import Scenario
from repro.registry import Info, Loader, Registry

__all__ = [
    "PatrolStrategy",
    "StrategyInfo",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "canonical_strategy_name",
    "strategy_info",
    "strategy_params",
    "seeded_params",
    "filter_strategy_kwargs",
    "validate_strategy_params",
    "all_strategy_infos",
    "strategy_alias_table",
    "derived_strategy_params",
]


@runtime_checkable
class PatrolStrategy(Protocol):
    """Anything that can turn a scenario into a patrol plan."""

    name: str

    def plan(self, scenario: Scenario) -> PatrolPlan:  # pragma: no cover - protocol signature
        ...


@dataclass(frozen=True)
class StrategyInfo(Info):
    """Registry record: how to build a strategy and which kwargs it accepts.

    ``params`` is the set of declared keyword names; strategies declare no
    defaults or required parameters, their planners carry those.  ``strict``
    is ``False`` only for factories whose signature takes ``**kwargs`` and
    that declared no explicit parameter set — for those,
    :func:`get_strategy` forwards keyword arguments unvalidated (the
    pre-declaration behaviour) and :func:`filter_strategy_kwargs` keeps
    everything.

    ``validator`` (optional) receives a parameter dict and raises
    :class:`ValueError` on out-of-range or malformed values *without building
    anything* — campaigns run it on every cell before simulation starts, as
    for every :class:`repro.registry.Info`.  ``composition`` (optional) is
    the strategy's default planning-pipeline composition
    (:class:`repro.planning.PipelineSpec`), shown by the
    ``repro-patrol strategies`` listing.
    """

    params: frozenset[str]
    strict: bool = True
    composition: "object | None" = None

    required: ClassVar[tuple[str, ...]] = ()
    _defaults: ClassVar[Mapping[str, Any]] = MappingProxyType({})


def derived_strategy_params(factory: Callable[..., PatrolStrategy]) -> tuple[frozenset[str], bool]:
    """Derive ``(params, strict)`` from a factory, as registration does when none were declared.

    The factory's signature declares its named keyword parameters (minus
    ``name``); for a class, dataclasses included, those are exactly the ones
    its constructor takes.  A ``**kwargs`` in the signature (or an
    uninspectable factory) makes the declaration non-strict so arbitrary
    keyword arguments keep flowing through, as they did before parameter
    declarations existed.  The registry-contract checker compares an
    explicitly declared parameter set against this derivation — the two
    drifting apart is exactly the bug the checker exists to catch.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return frozenset(), False
    names = set()
    strict = True
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            strict = False
        elif param.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                            inspect.Parameter.KEYWORD_ONLY) and param.name != "name":
            names.add(param.name)
    return frozenset(names), strict


def register_strategy(
    name: str,
    factory: Callable[..., PatrolStrategy],
    *,
    params: "frozenset[str] | tuple[str, ...] | None" = None,
    aliases: tuple[str, ...] = (),
    description: str = "",
    validator: "Callable[[dict], None] | None" = None,
    composition: "object | None" = None,
) -> None:
    """Register a strategy factory under ``name`` (case-insensitive).

    ``params`` declares the keyword arguments the factory accepts; when it is
    omitted, the declaration is derived from the factory's signature (see
    :func:`derived_strategy_params`).  ``aliases`` are alternative names
    resolving to the same factory.  ``validator`` checks
    parameter values cheaply before any simulation (see
    :func:`validate_strategy_params`); ``composition`` is the strategy's
    default :class:`~repro.planning.PipelineSpec`, for listings.
    """
    if params is not None:
        declared, strict = frozenset(params), True
    else:
        declared, strict = derived_strategy_params(factory)
    STRATEGIES.register(
        name, factory, aliases=aliases, params=declared, strict=strict,
        description=description, validator=validator, composition=composition,
    )


def available_strategies(*, include_aliases: bool = True) -> list[str]:
    """Names of all registered strategies (aliases included by default)."""
    return STRATEGIES.names(include_aliases=include_aliases)


def canonical_strategy_name(name: str) -> str:
    """Resolve an alias (``"btctp"``) to its canonical registry name (``"b-tctp"``)."""
    return STRATEGIES.info(name).name


def strategy_info(name: str) -> StrategyInfo:
    """The :class:`StrategyInfo` record for ``name`` (alias-tolerant)."""
    return STRATEGIES.info(name)


def strategy_params(name: str) -> frozenset[str]:
    """The keyword parameters declared by strategy ``name``."""
    return STRATEGIES.info(name).params


def seeded_params(name: str, params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """A copy of ``params`` with ``seed`` injected when strategy ``name`` declares one.

    An explicit ``params["seed"]`` wins.  This is how a run's replication
    seed reaches seed-declaring strategies (the Random baseline) on every
    path that plans or fingerprints a run.
    """
    params = dict(params)
    if "seed" in strategy_params(name) and "seed" not in params:
        params["seed"] = seed
    return params


def filter_strategy_kwargs(name: str, kwargs: Mapping[str, Any]) -> dict[str, Any]:
    """Subset of ``kwargs`` that strategy ``name`` declares it accepts.

    This is the campaign-layer convenience: one shared parameter set (say
    ``{"policy": "shortest", "seed": 7}``) can be fanned out across strategies
    that each take only part of it.

    Raises
    ------
    ValueError
        If ``name`` is not a registered strategy — the error names the
        offending strategy, lists the registered ones and suggests a close
        match, so a typo in a sweep reads unambiguously.
    """
    return STRATEGIES.filter(name, kwargs)


def validate_strategy_params(name: str, params: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` on an unknown strategy, undeclared or bad params.

    Runs the declared-parameter check and the strategy's registered
    ``validator`` (value/range checks) without instantiating a planner —
    cheap enough for every cell of a campaign (:meth:`repro.registry.Registry.validate`).
    """
    STRATEGIES.validate(name, params)


def all_strategy_infos() -> dict[str, StrategyInfo]:
    """Snapshot of the whole registry: canonical name -> :class:`StrategyInfo`.

    The introspection hook for :mod:`repro.analysis.registry_contract`; the
    returned dict is a copy, so analyzers can never mutate the registry.
    """
    return STRATEGIES.infos()


def strategy_alias_table() -> dict[str, str]:
    """Every accepted strategy key (canonical names included) -> canonical name."""
    return STRATEGIES.alias_table()


def get_strategy(name: str, **kwargs) -> PatrolStrategy:
    """Instantiate a registered strategy by name.

    Parameters
    ----------
    name : str
        Registry name or alias (``"b-tctp"``, ``"btctp"``, ``"sweep"`` ...;
        see :func:`available_strategies`).
    **kwargs
        Keyword parameters declared by the strategy, validated against its
        registry entry and forwarded to the factory — e.g.
        ``get_strategy("w-tctp", policy="shortest")`` or
        ``get_strategy("random", seed=7)``.

    Returns
    -------
    PatrolStrategy
        A planner object exposing ``plan(scenario) -> PatrolPlan``.  For a
        built-in strategy this is the immutable
        :class:`~repro.planning.PlanningPipeline` its builder returns, shared
        by every lookup with equal parameters.

    Raises
    ------
    ValueError
        If ``name`` is unknown, a keyword is not declared by the strategy
        (for strict registrations), or the strategy's validator rejects a
        value — before any planning starts.

    See Also
    --------
    repro.scenarios.get_scenario : the scenario-side twin.
    """
    return STRATEGIES.validate(name, kwargs).factory(**kwargs)


def _load_builtins() -> None:
    from repro.planning.compositions import register_builtin_compositions

    register_builtin_compositions()


#: The strategy table; its built-ins register on the first lookup.
STRATEGIES = Registry("strategy", Loader(_load_builtins), info_type=StrategyInfo)
