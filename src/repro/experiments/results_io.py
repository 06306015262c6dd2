"""Persisting experiment results: JSON round-trip and CSV export.

Experiment runs return plain dictionaries (possibly with tuple keys for
parameter grids).  These helpers write them to disk with enough metadata to
know later what produced them, read them back with the tuple keys restored,
and flatten grid-style results into CSV for spreadsheet / plotting tools.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.reporting import to_csv
from repro.store.io import atomic_write_text

__all__ = ["save_result", "load_result", "grid_to_rows", "export_grid_csv"]

_TUPLE_KEY_PREFIX = "__tuple__:"


def _encode_keys(obj: Any) -> Any:
    """Recursively convert tuple dictionary keys into tagged strings (JSON-safe)."""
    if isinstance(obj, Mapping):
        out = {}
        for key, value in obj.items():
            if isinstance(key, tuple):
                key = _TUPLE_KEY_PREFIX + json.dumps(list(key))
            out[str(key) if not isinstance(key, str) else key] = _encode_keys(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_encode_keys(v) for v in obj]
    return obj


def _decode_keys(obj: Any) -> Any:
    """Inverse of :func:`_encode_keys` (tuple keys restored, numeric strings left alone)."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if isinstance(key, str) and key.startswith(_TUPLE_KEY_PREFIX):
                key = tuple(json.loads(key[len(_TUPLE_KEY_PREFIX):]))
            out[key] = _decode_keys(value)
        return out
    if isinstance(obj, list):
        return [_decode_keys(v) for v in obj]
    return obj


def save_result(data: Mapping[str, Any], path: "str | Path", *,
                extra_metadata: Mapping[str, Any] | None = None) -> Path:
    """Write an experiment result dictionary to ``path`` as JSON.

    A ``_meta`` block with the library version and a wall-clock timestamp is
    added so saved results are self-describing.  The write is atomic: a
    failed one leaves any previous file whole.  Returns the path written.
    """
    from repro import __version__

    payload = dict(_encode_keys(dict(data)))
    payload["_meta"] = {
        "library_version": __version__,
        "saved_at_unix": time.time(),
        **(dict(extra_metadata) if extra_metadata else {}),
    }
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def load_result(path: "str | Path") -> dict:
    """Read a result previously written by :func:`save_result` (tuple keys restored)."""
    payload = json.loads(Path(path).read_text())
    return _decode_keys(payload)


def grid_to_rows(grid: Mapping[str, Mapping[tuple, float]],
                 *, key_names: tuple[str, ...] = ("x", "y")) -> tuple[list[str], list[list]]:
    """Flatten ``{series: {(x, y): value}}`` grids into a header + row table.

    All series must be indexed by the same keys; rows are sorted by key.
    """
    if not grid:
        return list(key_names), []
    series_names = list(grid)
    all_keys = sorted({k for series in grid.values() for k in series})
    headers = list(key_names) + series_names
    rows: list[list] = []
    for key in all_keys:
        key_tuple = key if isinstance(key, tuple) else (key,)
        row = list(key_tuple)
        for name in series_names:
            row.append(grid[name].get(key, float("nan")))
        rows.append(row)
    return headers, rows


def export_grid_csv(grid: Mapping[str, Mapping[tuple, float]], path: "str | Path", *,
                    key_names: tuple[str, ...] = ("x", "y")) -> Path:
    """Write a grid-style result (Figures 8-10) to CSV, atomically; returns the path written."""
    headers, rows = grid_to_rows(grid, key_names=key_names)
    return atomic_write_text(path, to_csv(headers, rows))
