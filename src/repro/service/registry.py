"""Transport registry: pluggable wire protocols for the ``serve`` daemon.

A :class:`repro.registry.Registry`, the shape the strategy / scenario-family
/ planning-stage registries (:mod:`repro.baselines.base`,
:mod:`repro.scenarios.registry`, :mod:`repro.planning.stages`) share: every
way of exposing the
:class:`~repro.service.scheduler.ServiceScheduler` over a wire — the
stdlib-asyncio HTTP/JSON transport, the line-oriented stdio transport, and
any transport a downstream package registers — lives under a name with a
declared option table (names, defaults, type annotations), aliases and a
description.  The ``repro-patrol serve --transport`` flag, the
``repro-patrol transports`` listing and programmatic embedders all resolve
transports through this registry, so a typo'd transport or option is
rejected with a did-you-mean suggestion *before* any socket is bound.

Registering a transport is a decorator::

    @register_transport("http", aliases=("rest",),
                        description="HTTP/1.1 + NDJSON streaming")
    def http_transport(scheduler, *, host: str = "127.0.0.1", port: int = 8422):
        return HttpTransport(scheduler, host=host, port=port)

The factory's keyword parameters (after the leading ``scheduler`` argument,
which the server wiring injects) become the transport's declared option
table.  Factories must be strict — ``**kwargs`` catch-alls are rejected so
the declaration stays truthful, exactly as the scenario registry does.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.registry import Info, Loader, Param, Registry

__all__ = [
    "TransportParam",
    "TransportInfo",
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

#: One declared option of a transport: name, default, type annotation.
TransportParam = Param
#: Registry record: how to build a transport and which options it takes.  The
#: factory receives the scheduler as its first positional argument plus the
#: validated options as keywords and must return an object exposing
#: ``serve_forever()`` (blocking) — the :class:`~repro.service.http.HttpTransport`
#: / :class:`~repro.service.stdio.StdioTransport` protocol.
TransportInfo = Info


def _load_transports() -> None:
    import repro.service.http  # noqa: F401  (registers the HTTP transport)
    import repro.service.stdio  # noqa: F401  (registers the stdio transport)


#: The transport table; the built-in transports register on the first lookup.
TRANSPORTS = Registry("transport", Loader(_load_transports), inject="scheduler",
                      param_noun="option")


def register_transport(
    name: str,
    factory: "Callable[..., Any] | None" = None,
    *,
    aliases: tuple[str, ...] = (),
    description: str = "",
):
    """Register a transport (decorator or direct call, case-insensitive).

    As a decorator::

        @register_transport("http", description="...")
        def http_transport(scheduler, *, host: str = "127.0.0.1", port: int = 8422):
            ...

    or directly: ``register_transport("http", http_transport, description=...)``.
    """
    return TRANSPORTS.register(name, factory, aliases=aliases, description=description)


def available_transports(*, include_aliases: bool = False) -> list[str]:
    """Names of all registered transports (canonical only by default)."""
    return TRANSPORTS.names(include_aliases=include_aliases)


def canonical_transport_name(name: str) -> str:
    """Resolve an alias (``"rest"``) to its canonical transport name (``"http"``)."""
    return TRANSPORTS.info(name).name


def transport_info(name: str) -> TransportInfo:
    """The :class:`TransportInfo` record for ``name`` (alias-tolerant)."""
    return TRANSPORTS.info(name)


def transport_params(name: str) -> frozenset[str]:
    """The option names declared by transport ``name``."""
    return frozenset(TRANSPORTS.info(name).params)


def validate_transport_options(name: str, options: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` on an unknown transport or undeclared options.

    Runs the declared-option check (with a did-you-mean suggestion) and the
    required-option check without binding any socket — cheap enough for the
    CLI to run before the daemon starts.
    """
    TRANSPORTS.validate(name, options)


def get_transport(name: str, scheduler, **options: Any):
    """Build a registered transport around ``scheduler``, validating options.

    Parameters
    ----------
    name : str
        Registry name or alias of the transport (see
        ``repro-patrol transports`` for the catalog).
    scheduler :
        The :class:`~repro.service.scheduler.ServiceScheduler` the transport
        serves; injected as the factory's first positional argument.
    **options
        The transport's declared options, e.g. ``host="0.0.0.0"``; a typo'd
        option name raises with a did-you-mean suggestion.

    Returns
    -------
    object
        A transport exposing ``serve_forever()``.
    """
    return TRANSPORTS.validate(name, options).factory(scheduler, **options)


def filter_transport_kwargs(name: str, kwargs: Mapping[str, Any]) -> dict[str, Any]:
    """Subset of ``kwargs`` that transport ``name`` declares it accepts.

    The CLI convenience: one shared flag set (``--host``/``--port``) can be
    handed to transports that each take only part of it (the stdio transport
    takes neither), as :func:`repro.baselines.base.filter_strategy_kwargs`
    does for strategies.
    """
    return TRANSPORTS.filter(name, kwargs)


def all_transport_infos() -> dict[str, TransportInfo]:
    """Snapshot of the whole registry: canonical name -> :class:`TransportInfo`.

    The introspection hook for :mod:`repro.analysis.registry_contract`; the
    returned dict is a copy, so analyzers can never mutate the registry.
    """
    return TRANSPORTS.infos()


def transport_alias_table() -> dict[str, str]:
    """Every accepted transport key (canonical names included) -> canonical name."""
    return TRANSPORTS.alias_table()
