"""Scenario family registry: declarative, pluggable scenario construction.

Like the strategy registry in :mod:`repro.baselines.base`, this is a
:class:`repro.registry.Registry`: every way of building a
:class:`~repro.network.scenario.Scenario` — the paper's uniform
and clustered generators, the hand-crafted layouts, and the extended catalog
of spatial families — is registered under a name with a declared parameter
table (names, defaults, type annotations), aliases and a description.  The
:mod:`repro.runner` campaign executor, the CLI and hand-written
:class:`~repro.scenarios.spec.ScenarioSpec` JSON files all resolve families
through this registry, so a typo'd family or parameter is rejected *before*
any simulation runs, and new workloads arrive as data, not code.

Registering a family is a decorator::

    @register_scenario("ring", aliases=("annulus",),
                       description="targets on an annulus around the centre")
    def ring_family(*, seed: int = 0, num_targets: int = 20, ...) -> Scenario:
        ...

The factory's keyword parameters (minus ``seed``, which the runner injects)
become the family's declared parameter table.  Factories must be strict —
``**kwargs`` catch-alls are rejected so the declaration stays truthful.  An
optional ``validator`` receives the fully merged parameter dict and should
raise :class:`ValueError` on out-of-range values; it runs during campaign
validation, cheaply, without generating anything.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.network.scenario import Scenario
from repro.registry import REQUIRED, Info, Loader, Param, Registry

__all__ = [
    "REQUIRED",
    "ScenarioParam",
    "ScenarioInfo",
    "register_scenario",
    "available_scenario_families",
    "canonical_scenario_family",
    "scenario_family_info",
    "scenario_family_params",
    "filter_scenario_kwargs",
    "validate_scenario_params",
    "build_scenario",
    "all_scenario_infos",
    "scenario_alias_table",
]

#: One declared parameter of a scenario family: name, default, type.
ScenarioParam = Param
#: Registry record: how to build a scenario family and what it accepts.
ScenarioInfo = Info


def _load_families() -> None:
    import repro.scenarios.families  # noqa: F401  (registers the built-in catalog)


#: The scenario-family table; the built-in catalog registers on the first lookup.
SCENARIOS = Registry("scenario family", Loader(_load_families), inject="seed")


def register_scenario(
    name: str,
    factory: "Callable[..., Scenario] | None" = None,
    *,
    aliases: tuple[str, ...] = (),
    description: str = "",
    validator: "Callable[[dict], None] | None" = None,
):
    """Register a scenario family (decorator or direct call, case-insensitive).

    As a decorator::

        @register_scenario("ring", description="...")
        def ring_family(*, seed: int = 0, num_targets: int = 20) -> Scenario: ...

    or directly: ``register_scenario("ring", ring_family, description=...)``.
    """
    return SCENARIOS.register(name, factory, aliases=aliases,
                              description=description, validator=validator)


def available_scenario_families(*, include_aliases: bool = False) -> list[str]:
    """Names of all registered scenario families (canonical only by default)."""
    return SCENARIOS.names(include_aliases=include_aliases)


def canonical_scenario_family(name: str) -> str:
    """Resolve an alias (``"grid_jitter"``) to its canonical family name."""
    return SCENARIOS.info(name).name


def scenario_family_info(name: str) -> ScenarioInfo:
    """The :class:`ScenarioInfo` record for ``name`` (alias-tolerant)."""
    return SCENARIOS.info(name)


def scenario_family_params(name: str) -> frozenset[str]:
    """The keyword parameters declared by family ``name``."""
    return frozenset(SCENARIOS.info(name).params)


def filter_scenario_kwargs(name: str, kwargs: Mapping[str, Any]) -> dict[str, Any]:
    """Subset of ``kwargs`` that family ``name`` declares it accepts.

    The campaign-layer convenience, as for strategies
    (:func:`repro.baselines.base.filter_strategy_kwargs`): one shared scenario
    parameter set can be fanned out across families that each take only part
    of it (e.g. a ``scenario.family`` axis crossing ``uniform`` with
    ``figure1``, which takes no ``num_targets``).
    """
    return SCENARIOS.filter(name, kwargs)


def validate_scenario_params(name: str, params: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` on an unknown family, undeclared or bad params.

    Runs the family's declared-name check, the required-parameter check, and
    the family validator (range checks), all without generating a scenario —
    cheap enough to run on every cell of a campaign before simulation starts.
    """
    SCENARIOS.validate(name, params)


def build_scenario(
    family: str,
    params: "Mapping[str, Any] | None" = None,
    *,
    seed: int = 0,
) -> Scenario:
    """Build a scenario from a registered family, its parameters and a seed.

    Parameters
    ----------
    family : str
        Registry name of the scenario family (aliases accepted, e.g.
        ``"grid_jitter"`` for ``"grid-jitter"``).
    params : Mapping[str, Any], optional
        Keyword parameters for the family factory; validated against the
        family's declared parameter table before anything is built, so a
        typo'd name surfaces as a clean :class:`ValueError` instead of a
        ``TypeError`` from deep inside a factory.
    seed : int, default 0
        Seed for the family's random generator; equal seeds reproduce the
        scenario byte for byte.

    Returns
    -------
    Scenario
        The generated problem instance (targets, sink, mules, field,
        physical parameters).

    See Also
    --------
    get_scenario : keyword-argument convenience wrapper.
    repro.scenarios.ScenarioSpec : the same description as round-trippable data.
    """
    params = dict(params or {})
    return SCENARIOS.validate(family, params).factory(seed=seed, **params)


def get_scenario(family: str, *, seed: int = 0, **params: Any) -> Scenario:
    """Instantiate a registered scenario family by name (keyword form).

    The scenario twin of :func:`repro.baselines.base.get_strategy`: resolve
    ``family`` in the registry, validate ``params`` against its declared
    parameter table, and build the scenario.

    Parameters
    ----------
    family : str
        Registry name or alias of the scenario family (see
        ``repro-patrol scenarios`` for the catalog).
    seed : int, default 0
        Generation seed; equal seeds reproduce the scenario byte for byte.
    **params
        The family's declared parameters, e.g. ``num_targets=24``.

    Returns
    -------
    Scenario
        The generated problem instance.

    Examples
    --------
    >>> from repro.scenarios import get_scenario
    >>> scenario = get_scenario("ring", num_targets=24, num_vips=2, seed=7)
    >>> scenario.num_targets
    24
    """
    return build_scenario(family, params, seed=seed)


def all_scenario_infos() -> dict[str, ScenarioInfo]:
    """Snapshot of the whole registry: canonical family -> :class:`ScenarioInfo`.

    The introspection hook for :mod:`repro.analysis.registry_contract`; the
    returned dict is a copy, so analyzers can never mutate the registry.
    """
    return SCENARIOS.infos()


def scenario_alias_table() -> dict[str, str]:
    """Every accepted family key (canonical names included) -> canonical name."""
    return SCENARIOS.alias_table()
