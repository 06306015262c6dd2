"""Content-addressed caches shared by the planning and simulation layers.

Campaign workloads run thousands of cells that share immutable structure:
the same scenario layout appears once per strategy in a grid, and the same
tour is rebuilt once per replication.  This module provides the one shared
caching layer for all of that:

* :class:`ContentCache` — a small LRU keyed by content, which registers
  itself here (the tour memo of :mod:`repro.graphs.hamiltonian`, the WPP
  memo, the campaign scenario prototypes and the batch's plan and row
  caches are all instances);
* :func:`points_fingerprint` — the stable point-set content hash keying the
  tour memoization;
* :func:`scenario_fingerprint` — a stable content hash over everything a
  planner or simulator reads from a scenario; the equivalence tests use it
  to prove prototype copies are exact, and it is the supported key for any
  scenario-derived reuse layered on top.  (The campaign prototype cache in
  :mod:`repro.runner.campaign` keys on the *generative* content instead —
  family + declared params + effective seed — which identifies the same
  scenarios without building them first.)

Caches are **purely memoizing**: a hit returns a value bit-for-bit identical
to what the miss path computes, so enabling or disabling caching never
changes a simulation record.  All caches register themselves in a module
registry so :func:`clear_caches`, :func:`cache_stats` and the global
:func:`configure` switch cover every consumer at once.

>>> from repro.geometry.cache import ContentCache, cache_stats, clear_caches
>>> squares = ContentCache("doctest_squares", maxsize=4)
>>> clear_caches()
>>> squares.get_or_compute(3, lambda: 3 * 3)
9
>>> squares.get_or_compute(3, lambda: 3 * 3)    # same key: served from cache
9
>>> cache_stats()["doctest_squares"]["hits"]
1
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable

import numpy as np

from repro.geometry.point import as_array
from repro.obs import registry as _obs
from repro.switches import CACHE

__all__ = [
    "ContentCache",
    "register_cache",
    "configure",
    "cache_enabled",
    "caching_disabled",
    "clear_caches",
    "cache_stats",
    "points_fingerprint",
    "scenario_fingerprint",
]


# --------------------------------------------------------------------------- #
# Cache registry and the global switch
# --------------------------------------------------------------------------- #

_REGISTRY: "dict[str, ContentCache]" = {}
_LOCK = threading.Lock()
_MISSING = object()  # get() default that no cached value can be

# One global switch for every geometry/tour/scenario cache (REPRO_GEOMETRY_CACHE;
# see repro.switches).  Disabling does not drop stored entries — re-enabling
# resumes hits — so a benchmark can interleave cached and uncached phases
# cheaply; clear_caches() is the cold start.
configure = CACHE.configure
cache_enabled = CACHE.enabled
caching_disabled = CACHE.disabled


class ContentCache:
    """A small LRU cache keyed by content fingerprints.

    Parameters
    ----------
    name:
        Registry name (must be unique); shows up in :func:`cache_stats`.
    maxsize:
        Maximum number of retained entries; the least recently used entry is
        evicted first.

    Notes
    -----
    Instances auto-register themselves so the module-level
    :func:`clear_caches` / :func:`cache_stats` / :func:`configure` cover
    them.  Lookups honour the global switch: with caching disabled,
    :meth:`get` always misses and :meth:`put` is a no-op, which makes an
    on/off comparison a pure code-path toggle.
    """

    def __init__(self, name: str, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._hit = _obs.counter("cache_requests", cache=name, outcome="hit")
        self._miss = _obs.counter("cache_requests", cache=name, outcome="miss")
        register_cache(self)

    def get(self, key: Any, default: Any = None) -> Any:
        with _LOCK:
            value = self._data.get(key, _MISSING) if CACHE.on else _MISSING
            if value is _MISSING:
                self.misses += 1
                self._miss()
                return default
            self._data.move_to_end(key)
            self.hits += 1
            self._hit()
            return value

    def put(self, key: Any, value: Any) -> None:
        if not CACHE.on:
            return
        with _LOCK:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                _obs.inc("cache_evictions", cache=self.name)

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Cached value for ``key``, computing (and storing) it on a miss."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with _LOCK:
            self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def register_cache(cache: ContentCache) -> ContentCache:
    """Add ``cache`` to the registry (idempotent for the same instance)."""
    existing = _REGISTRY.get(cache.name)
    if existing is not None and existing is not cache:
        raise ValueError(f"a cache named {cache.name!r} is already registered")
    _REGISTRY[cache.name] = cache
    return cache


def clear_caches() -> None:
    """Empty every registered cache and reset its hit/miss counters."""
    for cache in _REGISTRY.values():
        cache.clear()


def cache_stats() -> dict[str, dict]:
    """Per-cache ``{size, maxsize, hits, misses, evictions}`` stats, by name."""
    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}


# --------------------------------------------------------------------------- #
# Content fingerprints
# --------------------------------------------------------------------------- #

def points_fingerprint(points: Iterable) -> bytes:
    """Stable content hash of a point collection (order-sensitive).

    Two collections with equal coordinates in equal order share a
    fingerprint regardless of whether they are ``Point`` objects, tuples or
    numpy rows.
    """
    arr = np.ascontiguousarray(as_array(points))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.digest()


def scenario_fingerprint(scenario) -> str:
    """Stable content hash of a :class:`~repro.network.scenario.Scenario`.

    Covers everything the planners and the simulator read: target ids,
    positions, weights and data rates; the sink; mule ids, deployment
    positions, velocities and battery capacities; the optional recharge
    station; the field bounds; and the physical parameters.  Two scenarios
    generated from the same spec and seed hash identically, so the hash is a
    safe reuse key for tours and plans built from scenario geometry.
    """
    digest = hashlib.blake2b(digest_size=16)

    def feed(*parts: object) -> None:
        for part in parts:
            digest.update(repr(part).encode())
            digest.update(b"\x1f")

    for t in scenario.targets:
        feed("target", t.id, t.position.x, t.position.y, t.weight, t.data_rate)
    feed("sink", scenario.sink.id, scenario.sink.position.x, scenario.sink.position.y)
    for m in scenario.mules:
        capacity = m.battery.capacity if m.battery is not None else None
        feed("mule", m.id, m.position.x, m.position.y, m.velocity,
             m.sensing_range, m.communication_range, capacity)
    station = scenario.recharge_station
    if station is not None:
        feed("recharge", station.id, station.position.x, station.position.y)
    feed("field", scenario.field)
    feed("params", scenario.params)
    return digest.hexdigest()
