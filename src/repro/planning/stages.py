"""The planning-stage registry: pluggable backends for the four pipeline stages.

Every planner in the library shares one hidden shape — build a base **tour**,
**augment** it for VIP weights or recharge, fix a traversal **order**, and
**initialise** the mules along it.  This module makes that shape explicit:
each of the four stage kinds owns a :class:`repro.registry.Registry` of
named backends, the shape the strategy, scenario and transport registries
share.

Registering a backend is a decorator::

    @register_stage("order", "reversed", description="traverse clockwise")
    def order_reversed(ctx):
        ...

Backends receive the :class:`~repro.planning.pipeline.PlanningContext` as
their leading positional argument; their keyword parameters form the
backend's declared parameter table (``**kwargs`` catch-alls are rejected),
and a parameter without a default must be given by every stage spec.  An
optional ``validator`` receives the parameter dict and raises
:class:`ValueError` on out-of-range values — it runs during campaign
validation, before any planning happens.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.registry import Info, Loader, Param, Registry, did_you_mean

__all__ = [
    "STAGE_KINDS",
    "StageParam",
    "StageBackendInfo",
    "register_stage",
    "available_stage_backends",
    "canonical_stage_backend",
    "stage_backend_info",
    "validate_stage_params",
    "did_you_mean",
    "all_stage_infos",
    "stage_alias_table",
]

#: The four stage kinds, in execution order.
STAGE_KINDS: tuple[str, ...] = ("tour", "augment", "order", "init")

#: One declared parameter of a stage backend: name, default, annotation.
StageParam = Param
#: Registry record for one backend of one stage kind.
StageBackendInfo = Info


def _load_backends() -> None:
    import repro.planning.backends  # noqa: F401  (registers the built-in backends)


#: One backend table per stage kind, all filled by one import on first lookup.
_BACKENDS = Loader(_load_backends)
STAGES: dict[str, Registry] = {
    kind: Registry(f"{kind} stage backend", _BACKENDS, inject="ctx") for kind in STAGE_KINDS
}


def _stages(kind: str) -> Registry:
    try:
        return STAGES[kind]
    except KeyError:
        raise ValueError(
            f"unknown stage kind {kind!r}; expected one of {', '.join(STAGE_KINDS)}"
            f"{did_you_mean(kind, STAGE_KINDS)}"
        ) from None


def register_stage(
    kind: str,
    name: str,
    factory: "Callable | None" = None,
    *,
    aliases: tuple[str, ...] = (),
    description: str = "",
    validator: "Callable[[dict], None] | None" = None,
):
    """Register a stage backend (decorator or direct call, case-insensitive)."""
    return _stages(kind).register(name, factory, aliases=aliases,
                                  description=description, validator=validator)


def available_stage_backends(kind: str, *, include_aliases: bool = False) -> list[str]:
    """Names of the registered backends for one stage kind."""
    return _stages(kind).names(include_aliases=include_aliases)


def canonical_stage_backend(kind: str, name: str) -> str:
    """Resolve an alias to the backend's canonical name; raise with suggestions."""
    return _stages(kind).info(name).name


def stage_backend_info(kind: str, name: str) -> StageBackendInfo:
    """The :class:`StageBackendInfo` record for ``(kind, name)`` (alias-tolerant)."""
    return _stages(kind).info(name)


def validate_stage_params(kind: str, name: str, params: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` on an unknown backend, undeclared, missing or bad params.

    Cheap enough to run on every cell of a campaign before planning starts;
    unknown names come back with a did-you-mean suggestion.
    """
    _stages(kind).validate(name, params)


def all_stage_infos() -> dict[str, dict[str, StageBackendInfo]]:
    """Snapshot of all four registries: kind -> canonical name -> info.

    The introspection hook for :mod:`repro.analysis.registry_contract`; the
    returned dicts are copies, so analyzers can never mutate the registries.
    """
    return {kind: STAGES[kind].infos() for kind in STAGE_KINDS}


def stage_alias_table(kind: str) -> dict[str, str]:
    """Every accepted backend key of one kind (canonical names included) -> canonical."""
    return _stages(kind).alias_table()
