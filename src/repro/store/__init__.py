"""Persistent results store: content-addressed run cache, query and reports.

This package turns the campaign layer into an **incremental computation**:
every finished run cell is stored under a deterministic content address (the
:func:`run_fingerprint` of its spec plus a code-version salt), and a
resumable campaign (``Campaign.run(store=...)``) looks each cell up before
dispatch, executes only the misses and writes them back atomically — records
are byte-identical (under JSON serialisation) to a cold run, with hit/miss
counts surfaced in the result metadata.

* :class:`ResultStore` — one SQLite row per record (index columns + JSON
  payload) under a root directory; ``get``/``put``/``query``/``stats``/
  ``gc``/``clear``/``merge_from``;
* :func:`run_fingerprint` / :func:`canonical_run_payload` — the content
  address and the canonical JSON it hashes;
* :func:`configure` / :func:`clear_store` / :func:`store_stats` — the
  module-level default store (``REPRO_STORE_DIR``), mirroring
  :mod:`repro.geometry.cache`;
* :func:`resolve_store` — how ``store=`` arguments normalise everywhere
  (``None`` = the default store when configured, ``False`` = opt out,
  ``True`` = force-create, path/:class:`ResultStore` = that store);
* :mod:`repro.store.query` / :mod:`repro.store.report` — filter stored runs
  by family/strategy/parameter ranges and aggregate/export them (the
  ``repro-patrol store`` / ``repro-patrol report`` subcommands).

See ``docs/STORE.md`` for the fingerprint definition, the cache layout, gc
semantics and the exact byte-identity guarantee.
"""

from repro.store.fingerprint import (
    canonical_run_json,
    canonical_run_payload,
    code_salt,
    run_fingerprint,
)
from repro.store.io import atomic_write_json, atomic_write_text
from repro.store.query import StoredRun, matches, parse_filter_expression
from repro.store.store import (
    MergeConflictError,
    ResultStore,
    clear_store,
    configure,
    default_root,
    default_store,
    resolve_store,
    store_enabled,
    store_stats,
)

__all__ = [
    "ResultStore",
    "MergeConflictError",
    "StoredRun",
    "run_fingerprint",
    "canonical_run_payload",
    "canonical_run_json",
    "code_salt",
    "configure",
    "default_root",
    "default_store",
    "resolve_store",
    "store_enabled",
    "clear_store",
    "store_stats",
    "matches",
    "parse_filter_expression",
    "atomic_write_text",
    "atomic_write_json",
]
