"""Writer for the result store's file-per-record layout, as earlier versions kept it.

Until stores moved each record into its index row, ``ResultStore.put``
published the record's JSON document to ``<root>/records/<ff>/<fp>.json``
(temp file + rename) and then inserted a ``runs`` row whose ``payload``
column held that file's path relative to the root.  :func:`legacy_put`
repeats those two steps byte for byte, so the conversion tests (and the CI
store smoke) can build such a store without an older checkout.

Usable from a child process too: put this directory on ``sys.path`` and
``from store_legacy import legacy_put``.
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import closing
from pathlib import Path
from typing import Any, Mapping

from repro.store.fingerprint import canonical_run_payload, code_salt
from repro.store.io import atomic_write_json
from repro.store.store import _canonical_strategy, _np_safe

__all__ = ["LEGACY_SCHEMA", "legacy_payload_path", "legacy_put"]

LEGACY_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    fingerprint     TEXT PRIMARY KEY,
    strategy        TEXT NOT NULL DEFAULT '',
    family          TEXT NOT NULL DEFAULT '',
    seed            INTEGER,
    created_at      REAL NOT NULL,
    library_version TEXT NOT NULL,
    payload         TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_strategy ON runs (strategy);
CREATE INDEX IF NOT EXISTS idx_runs_family ON runs (family);
CREATE INDEX IF NOT EXISTS idx_runs_created ON runs (created_at);
"""


def legacy_payload_path(root: "str | Path", fingerprint: str) -> Path:
    return Path(root) / "records" / fingerprint[:2] / f"{fingerprint}.json"


def legacy_put(
    root: "str | Path", fingerprint: str, record: Mapping[str, Any], spec=None
) -> Path:
    """Store one record in the file-per-record layout; returns its payload file."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if spec is None or isinstance(spec, Mapping):
        payload_spec = dict(spec) if spec is not None else None
    else:
        payload_spec = canonical_run_payload(spec)
    created_at = time.time()
    version = code_salt()
    payload = {
        "fingerprint": fingerprint,
        "library_version": version,
        "created_at": created_at,
        "spec": payload_spec,
        "record": dict(record),
    }
    path = legacy_payload_path(root, fingerprint)
    atomic_write_json(path, payload, default=_np_safe)
    scenario = (payload_spec or {}).get("scenario", {})
    with closing(sqlite3.connect(root / "index.sqlite")) as conn:
        conn.executescript(LEGACY_SCHEMA)
        conn.execute("PRAGMA journal_mode=WAL")
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO runs "
                "(fingerprint, strategy, family, seed, created_at, library_version, payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    _canonical_strategy((payload_spec or {}).get("strategy", "")),
                    scenario.get("family", ""),
                    (payload_spec or {}).get("seed"),
                    created_at,
                    version,
                    str(path.relative_to(root)),
                ),
            )
    return path
