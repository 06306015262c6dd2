"""One table of process-wide switches: the byte-invisible code-path toggles.

Three layers can be turned off (or, for the obs registry, on) per process
without changing a single record byte — they only choose *how* a result is
computed:

===================  ========================  =======  ==========================
switch               environment variable      default  owner module
===================  ========================  =======  ==========================
:data:`CACHE`        ``REPRO_GEOMETRY_CACHE``  on       :mod:`repro.geometry.cache`
:data:`BATCHPATH`    ``REPRO_BATCHPATH``       on       :mod:`repro.sim.batchpath`
:data:`OBS`          ``REPRO_OBS``             off      :mod:`repro.obs.registry`
===================  ========================  =======  ==========================

Each is a :class:`Switch`: its environment variable sets the state at
import (case and whitespace do not matter: ``0``/``false``/``no``/``off``
turn a default-on switch off, ``1``/``true``/``yes``/``on`` turn a
default-off switch on, anything else keeps the default), ``configure``
flips it for the process, and ``disabled()`` turns it off for one block.
Hot paths read the ``on`` attribute directly.  The owner modules publish
the bound methods under their historical names (``caching_disabled =
CACHE.disabled``, ...), and :func:`snapshot` / :func:`restore` carry every
switch into pool workers at once.

>>> from repro.switches import CACHE
>>> with CACHE.disabled():
...     CACHE.enabled()
False
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Mapping

__all__ = ["Switch", "CACHE", "BATCHPATH", "OBS", "SWITCHES", "snapshot", "restore"]

_OFF = ("0", "false", "no", "off")
_ON = ("1", "true", "yes", "on")


class Switch:
    """One process-wide on/off switch with an environment-variable default.

    Parameters
    ----------
    env:
        The environment variable read once, at construction.
    default:
        The state when the variable is unset or spells neither on nor off
        for this switch: a default-on switch only turns off on an off
        spelling, a default-off switch only turns on on an on spelling.
    """

    __slots__ = ("env", "default", "on", "_lock")

    def __init__(self, env: str, *, default: bool) -> None:
        self.env = env
        self.default = default
        # The only environment read on a registered code path.  Every switch
        # is byte-invisible by proof — the cache equivalence tests, the
        # three-path differential fuzzer and the obs differential tests
        # compare records with each switch on and off — so the env read can
        # never change a result.
        spelling = os.environ.get(env, "").strip().lower()  # repro: allow[det-env-branch]
        self.on = spelling not in _OFF if default else spelling in _ON
        self._lock = threading.Lock()

    def configure(self, *, enabled: bool | None = None) -> None:
        """Set the switch for this process (``None`` leaves it unchanged)."""
        with self._lock:
            if enabled is not None:
                self.on = bool(enabled)

    def enabled(self) -> bool:
        """Whether the switch is on."""
        return self.on

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Turn the switch off inside the block, then restore its state."""
        previous = self.on
        self.configure(enabled=False)
        try:
            yield
        finally:
            self.configure(enabled=previous)


CACHE = Switch("REPRO_GEOMETRY_CACHE", default=True)
BATCHPATH = Switch("REPRO_BATCHPATH", default=True)
OBS = Switch("REPRO_OBS", default=False)

SWITCHES: tuple[Switch, ...] = (CACHE, BATCHPATH, OBS)


def snapshot() -> dict[str, bool]:
    """Every switch's state, keyed by its environment variable (picklable)."""
    return {switch.env: switch.on for switch in SWITCHES}


def restore(state: Mapping[str, bool]) -> None:
    """Set every switch named in ``state`` (a :func:`snapshot`) to its value."""
    for switch in SWITCHES:
        switch.configure(enabled=state.get(switch.env))
