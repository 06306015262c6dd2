"""One registry shape for strategies, scenario families, stages and transports.

The library's pluggable parts are found by name through four registries —
strategies (:mod:`repro.baselines.base`), scenario families
(:mod:`repro.scenarios.registry`), planning-stage backends
(:mod:`repro.planning.stages`, one registry per stage kind) and serve
transports (:mod:`repro.service.registry`).  Each is a :class:`Registry`:
a case-insensitive table of :class:`Info` records under their names and
aliases, each record carrying the parameter table declared by its factory.
Lookups and parameter checks raise :class:`ValueError` with a did-you-mean
suggestion, so a typo in a spec fails before anything is built.

Built-in entries register lazily, on the first lookup, because the modules
that define them import most of the library.  A :class:`Loader` runs that
registration once per process.  One process-wide re-entrant lock guards
every load, and a loader counts as done only after its load returned, so a
thread looking up a name while another thread loads waits for the full
table instead of reading a half-filled one.
"""

from __future__ import annotations

import difflib
import inspect
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, ClassVar, Mapping

__all__ = ["REQUIRED", "Param", "Info", "Loader", "Registry", "did_you_mean"]


def did_you_mean(name: str, options) -> str:
    """``"; did you mean 'x'?"`` when ``name`` is a near-miss of an option, else ``""``."""
    matches = difflib.get_close_matches(str(name).lower(), [str(o) for o in options], n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


class _Required:
    """Sentinel default for parameters an entry requires explicitly."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<required>"


REQUIRED = _Required()


@dataclass(frozen=True)
class Param:
    """One declared parameter of a registry entry: name, default, type annotation."""

    name: str
    default: Any = REQUIRED
    kind: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED


@dataclass(frozen=True)
class Info:
    """Registry record: a factory, its declared parameters, aliases and description.

    ``params`` maps each declared parameter name to its :class:`Param`.
    ``validator`` (optional) receives the parameters merged over the declared
    defaults and raises :class:`ValueError` on out-of-range values without
    building anything, so campaigns can run it on every cell before any
    simulation starts.
    """

    name: str
    factory: Callable[..., Any]
    params: Mapping[str, Param]
    aliases: tuple[str, ...] = ()
    description: str = ""
    validator: "Callable[[dict], None] | None" = None

    #: Whether undeclared parameters are rejected; only a strategy registered
    #: with a ``**kwargs`` factory and no declared parameter set turns it off.
    strict: ClassVar[bool] = True

    # Records are immutable and every campaign cell validates against them,
    # so the derived views below are computed once per record.
    @cached_property
    def required(self) -> tuple[str, ...]:
        """The names of the parameters without a default, sorted."""
        return tuple(sorted(p.name for p in self.params.values() if p.required))

    @cached_property
    def _defaults(self) -> Mapping[str, Any]:
        return {p.name: p.default for p in self.params.values() if not p.required}

    def defaults(self) -> dict[str, Any]:
        """The declared defaults (required parameters omitted)."""
        return dict(self._defaults)

    def merged(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Declared defaults overlaid with ``params`` (assumed validated)."""
        return {**self._defaults, **params}


_LOAD_LOCK = threading.RLock()


class Loader:
    """Registers a set of built-in entries once per process, on first use.

    Registries share a loader when one load fills them all (the four stage
    kinds), and one load may run another (strategy compositions build
    pipeline specs, which look up stage backends); so the state lives here,
    not in each table, and every load runs under the one process-wide lock.
    A registration made by the load itself re-enters on the loading thread
    and returns at once.  The modules a load imports register their entries
    at import time, so they are imported through a lookup, never directly:
    a thread importing one while another thread loads would wait on the
    lock inside the import.
    """

    def __init__(self, load: Callable[[], None]) -> None:
        self.load = load
        self.done = False
        self._running = False

    def __call__(self) -> None:
        if self.done:
            return
        with _LOAD_LOCK:
            if self.done or self._running:
                return
            self._running = True
            try:
                self.load()
            finally:
                self._running = False
            self.done = True


def _type_name(annotation: Any) -> str:
    if annotation is inspect.Parameter.empty:
        return ""
    if isinstance(annotation, str):
        return annotation
    return getattr(annotation, "__name__", str(annotation))


class Registry:
    """A case-insensitive table of named entries with declared parameters.

    ``noun`` names an entry in messages (``"scenario family"``) and
    ``param_noun`` its parameters (``"option"`` for transports).  ``inject``
    is the argument the caller hands every factory itself — the runner's
    ``seed``, the planning context, the server's scheduler — which the
    declared parameter table leaves out.  ``info_type`` is the record class
    :meth:`register` builds.
    """

    def __init__(
        self,
        noun: str,
        loader: Loader,
        *,
        inject: "str | None" = None,
        param_noun: str = "parameter",
        info_type: type = Info,
    ) -> None:
        self.noun = noun
        self.loader = loader
        self.inject = inject
        self.param_noun = param_noun
        self.info_type = info_type
        self._infos: dict[str, Info] = {}    # canonical name -> info
        self._keys: dict[str, Info] = {}     # every accepted key -> info

    # -- registration ------------------------------------------------------ #
    def register(self, name: str, factory: "Callable | None" = None, *,
                 aliases: tuple[str, ...] = (), **fields: Any):
        """Register ``factory`` under ``name`` and ``aliases`` (case-insensitive).

        Works as a decorator when ``factory`` is omitted.  ``fields`` fill the
        rest of the record; ``params`` defaults to the table derived from the
        factory signature.
        """
        if factory is None:
            return lambda fac: self.register(name, fac, aliases=aliases, **fields)
        self.loader()  # a custom entry must never take a built-in's name
        for key, what in ((name, self.noun), *((a, f"{self.noun} alias") for a in aliases)):
            if key.lower() in self._keys:
                raise ValueError(f"{what} {key!r} is already registered")
        if "params" not in fields:
            fields["params"] = self._param_table(factory)
        info = self.info_type(name=name.lower(), factory=factory,
                              aliases=tuple(a.lower() for a in aliases), **fields)
        self._infos[info.name] = info
        for key in (info.name, *info.aliases):
            self._keys[key] = info
        return factory

    def _param_table(self, factory: Callable) -> dict[str, Param]:
        """The parameters ``factory`` declares: its keyword parameters, minus the injected one.

        The injected argument is the leading positional parameter or the
        keyword named ``inject``.  A ``**kwargs`` catch-all is rejected, so
        the declaration is complete and validation can trust it.
        """
        table: dict[str, Param] = {}
        for index, param in enumerate(inspect.signature(factory).parameters.values()):
            if param.kind is param.VAR_KEYWORD:
                raise TypeError(
                    f"{self.noun} factory {factory!r} takes **{param.name}; registered "
                    f"factories must declare an explicit keyword {self.param_noun} set"
                )
            injected = param.name == self.inject or (index == 0 and param.kind is not param.KEYWORD_ONLY)
            if not injected and param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
                default = REQUIRED if param.default is param.empty else param.default
                table[param.name] = Param(param.name, default, _type_name(param.annotation))
        return table

    # -- lookup ------------------------------------------------------------ #
    def info(self, name: str) -> Info:
        """The record for ``name`` or one of its aliases; raise with a suggestion."""
        if not self.loader.done:
            self.loader()
        try:
            return self._keys[name.lower()]
        except KeyError as exc:
            raise ValueError(
                f"unknown {self.noun} {name!r}; available: {', '.join(sorted(self._infos))}"
                f"{did_you_mean(name, self._keys)}"
            ) from exc

    def names(self, *, include_aliases: bool = False) -> list[str]:
        """Sorted canonical names, or every accepted key with ``include_aliases``."""
        self.loader()
        return sorted(self._keys if include_aliases else self._infos)

    def validate(self, name: str, params: Mapping[str, Any]) -> Info:
        """Check ``params`` against entry ``name`` without building it; return its record.

        Raises :class:`ValueError` on an unknown entry, an undeclared or a
        missing required parameter, or a value the entry's validator rejects
        (a validator's :class:`TypeError` included).
        """
        info = self.info(name)
        unknown = set(params).difference(info.params) if info.strict else None
        if unknown:
            unknown = sorted(unknown)
            raise ValueError(
                f"{self.noun} {info.name!r} does not accept {self.param_noun}(s) "
                f"{', '.join(repr(p) for p in unknown)}; accepted: "
                f"{', '.join(sorted(info.params)) or '(none)'}"
                f"{did_you_mean(unknown[0], info.params)}"
            )
        missing = [p for p in info.required if p not in params] if info.required else None
        if missing:
            raise ValueError(
                f"{self.noun} {info.name!r} requires {self.param_noun}(s): {', '.join(missing)}"
            )
        if info.validator is not None:
            try:
                info.validator(info.merged(params))
            except TypeError as exc:
                # e.g. a string where a number belongs: the same clean
                # pre-run rejection as any other bad parameter value.
                raise ValueError(
                    f"invalid parameter value for {self.noun} {info.name!r}: {exc}"
                ) from exc
        return info

    def filter(self, name: str, kwargs: Mapping[str, Any]) -> dict[str, Any]:
        """The subset of ``kwargs`` entry ``name`` declares (all of it when not strict)."""
        info = self.info(name)
        if not info.strict:
            return dict(kwargs)
        return {k: v for k, v in kwargs.items() if k in info.params}

    # -- introspection ----------------------------------------------------- #
    def infos(self) -> dict[str, Info]:
        """A copy of the table: canonical name -> record."""
        self.loader()
        return dict(self._infos)

    def alias_table(self) -> dict[str, str]:
        """Every accepted key (canonical names included) -> canonical name."""
        self.loader()
        return {key: info.name for key, info in self._keys.items()}
