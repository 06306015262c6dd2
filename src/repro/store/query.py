"""Query layer over stored runs: filter past campaigns by spec and record content.

A :class:`StoredRun` is one indexed cache entry — fingerprint, index
metadata, the canonical run payload it was computed from, and (when loaded)
the record itself.  :func:`matches` evaluates the keyword filters accepted by
:meth:`repro.store.ResultStore.query` against one entry:

* a **scalar** filter value means equality (``num_targets=20``);
* a **tuple** ``(lo, hi)`` means an inclusive range, with ``None`` for an
  open end (``num_targets=(10, 30)``, ``horizon=(None, 30_000)``);
* a **list/set** means membership (``strategy=["chb", "b-tctp"]``);
* a **callable** is a predicate over the looked-up value.

Filter keys are resolved against the entry in this order: the record itself
(metrics, labels, identification columns), then the canonical spec payload's
scenario parameters, strategy parameters, simulator fields, and finally its
top-level fields (``strategy``, ``seed``, ...).  An entry whose key resolves
nowhere does not match — filtering on ``gap_fraction`` naturally restricts
the result to corridor-family runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

__all__ = ["StoredRun", "lookup", "matches"]

_MISSING = object()


@dataclass(frozen=True)
class StoredRun:
    """One indexed entry of a :class:`~repro.store.ResultStore`.

    ``spec`` is the canonical run payload (see
    :func:`repro.store.canonical_run_payload`); ``record`` is the tidy result
    record, or ``None`` when the entry was listed without loading payloads.
    ``path`` is the index file the entry's row lives in.
    """

    fingerprint: str
    strategy: str
    family: str
    seed: "int | None"
    created_at: float
    library_version: str
    path: Path
    spec: "dict | None" = None
    record: "dict | None" = None


def lookup(entry: StoredRun, key: str) -> Any:
    """Resolve a filter key against one entry (see the module docstring).

    Returns the module-private ``_MISSING`` sentinel when the key resolves
    nowhere; callers should treat that as "does not match".
    """
    if entry.record is not None and key in entry.record:
        return entry.record[key]
    spec = entry.spec or {}
    for scope in (spec.get("scenario", {}).get("params"), spec.get("params"),
                  spec.get("sim")):
        if isinstance(scope, Mapping) and key in scope:
            return scope[key]
    if key == "family":
        return entry.family
    if key in spec:
        return spec[key]
    if key == "fingerprint":
        return entry.fingerprint
    return _MISSING


def _condition_holds(value: Any, condition: Any) -> bool:
    if callable(condition):
        return bool(condition(value))
    if isinstance(condition, tuple):
        if len(condition) != 2:
            raise ValueError(
                f"range filter must be a (lo, hi) pair, got {condition!r}"
            )
        lo, hi = condition
        try:
            if lo is not None and value < lo:
                return False
            if hi is not None and value > hi:
                return False
        except TypeError:
            return False  # e.g. a range filter against a string-valued column
        return True
    if isinstance(condition, (list, set, frozenset)):
        return value in condition
    return value == condition


def matches(entry: StoredRun, filters: Mapping[str, Any]) -> bool:
    """Whether ``entry`` satisfies every keyword filter."""
    for key, condition in filters.items():
        value = lookup(entry, key)
        if value is _MISSING or not _condition_holds(value, condition):
            return False
    return True


def parse_filter_expression(text: str) -> "tuple[str, Any]":
    """Parse one CLI ``--where`` expression into a ``(key, condition)`` pair.

    Grammar: ``key=value`` (equality), ``key=lo..hi`` (inclusive range, either
    end may be empty), ``key=a|b|c`` (membership).  Values parse as int, then
    float, then stay strings.
    """
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ValueError(f"filter {text!r} must look like key=value, key=lo..hi or key=a|b|c")
    raw = raw.strip()
    if ".." in raw:
        lo_text, _, hi_text = raw.partition("..")
        lo = _parse_scalar(lo_text) if lo_text.strip() else None
        hi = _parse_scalar(hi_text) if hi_text.strip() else None
        return key, (lo, hi)
    if "|" in raw:
        return key, [_parse_scalar(item) for item in raw.split("|") if item.strip()]
    return key, _parse_scalar(raw)


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text
