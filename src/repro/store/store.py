"""The persistent result store: one SQLite row per finished run.

Layout (under a configurable root directory)::

    <root>/index.sqlite    table ``records``: fingerprint -> index columns + payload

Each row's index columns (canonical strategy, family, seed, creation time,
library version) drive listing and query pre-filters; its ``payload`` column
holds the JSON document of the run: the canonical run payload it was
computed from, the record itself, and provenance (library version, creation
time).  Records are stored with ``NaN`` preserved and dictionary insertion
order intact, so a warm lookup returns the record **byte-identical under
JSON serialisation** to what a cold execution produces (tuples come back as
lists — their JSON canonical form; see ``docs/STORE.md``).

A put is one ``INSERT OR REPLACE`` in one transaction and a lookup is one
``SELECT``.  The index runs in WAL mode with ``synchronous=FULL``, so a put
is durable when it returns and a crash at any instant leaves either the
previous row or the complete new one.  Lookups self-heal: a row whose payload
does not parse counts as a miss and is dropped.  ``gc()`` sweeps entries
from other library versions (whose fingerprints, salted by version, can
never hit again) and, on request, old ones.

Stores written by earlier versions kept each payload in a file,
``records/<ff>/<fp>.json``, beside a ``runs`` table of file paths.  The first
connection converts such a store: every readable payload file becomes a
``records`` row in one transaction (a missing or unreadable file drops its
row, as a lookup would), then ``records/`` is removed with anything left in
it, and ``PRAGMA user_version`` marks the layout.  An older library writing
to a converted store re-creates ``runs`` and its payload files, so every
open also looks for that table (one ``sqlite_master`` lookup) and converts
what it finds: opening a current store costs a pragma read and that lookup.

The store is also safe under **concurrent writers** — the ``serve`` daemon's
worker threads all share one instance: the sqlite connection is opened with
``check_same_thread=False`` and every statement runs under the store's own
lock; WAL journaling lets readers proceed beside the writer, and commits
retry with backoff when another *process* holds the write lock.  Two writers
racing on the same fingerprint are benign: the insert is ``INSERT OR
REPLACE``, so the duplicate put is an idempotent race, not corruption.

The module-level :func:`configure` / :func:`clear_store` / :func:`store_stats`
API mirrors :mod:`repro.geometry.cache`: set ``REPRO_STORE_DIR`` (or call
``configure(root=...)``) and every campaign and experiment becomes resumable
by default; pass ``store=False`` to opt a single run out.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import threading
import time
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.store.fingerprint import code_salt, memoised_run_payload, run_fingerprint
from repro.store.query import StoredRun, matches

__all__ = [
    "ResultStore",
    "MergeConflictError",
    "configure",
    "default_root",
    "default_store",
    "resolve_store",
    "store_enabled",
    "clear_store",
    "store_stats",
]

_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS records (
        fingerprint     TEXT PRIMARY KEY,
        strategy        TEXT NOT NULL DEFAULT '',
        family          TEXT NOT NULL DEFAULT '',
        seed            INTEGER,
        created_at      REAL NOT NULL,
        library_version TEXT NOT NULL,
        payload         TEXT NOT NULL
    )""",
    "CREATE INDEX IF NOT EXISTS idx_records_strategy ON records (strategy)",
    "CREATE INDEX IF NOT EXISTS idx_records_family ON records (family)",
    "CREATE INDEX IF NOT EXISTS idx_records_created ON records (created_at)",
)

#: ``PRAGMA user_version`` of a store whose records live in ``records`` rows.
_LAYOUT_VERSION = 1

#: Finds the ``runs`` table of the file-per-record layout, if there is one.
_LEGACY_TABLE = "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'runs'"

_INDEX_COLUMNS = "fingerprint, strategy, family, seed, created_at, library_version"
_INSERT = f"INSERT OR REPLACE INTO records ({_INDEX_COLUMNS}, payload) VALUES (?, ?, ?, ?, ?, ?, ?)"

# Cross-process write contention: how long sqlite itself blocks on a held
# write lock (timeout=) and how the store retries around the residue.  The
# in-process threads of one store never contend — they serialise on the
# store's own lock — so these only matter for multi-process campaigns
# sharing one root.
_SQLITE_TIMEOUT_S = 5.0
_LOCK_RETRIES = 5
_LOCK_RETRY_BASE_S = 0.05


class MergeConflictError(ValueError):
    """Two stores hold *different* records under the same fingerprint.

    Fingerprints are content addresses salted by library version, so shards
    of one campaign can only collide on a fingerprint when they computed the
    same cell — and then the records must agree.  A mismatch means the shards
    were produced by diverging code or corrupted payloads; merging would
    silently pick one side, so the merge refuses instead.
    """

    def __init__(self, fingerprint: str, source: "str | Path") -> None:
        self.fingerprint = fingerprint
        self.source = str(source)
        super().__init__(
            f"merge conflict on fingerprint {fingerprint}: the record in "
            f"{self.source} differs from the one already stored"
        )


def _np_safe(obj: Any) -> Any:
    """JSON ``default`` hook: numpy scalars/arrays serialise as their Python twins."""
    item = getattr(obj, "item", None)
    if callable(item) and getattr(obj, "shape", None) == ():
        return item()
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serialisable")


def _parse(text: str) -> "dict | None":
    """A stored payload document, or ``None`` when it does not parse to one."""
    try:
        payload = json.loads(text)
    except (TypeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class ResultStore:
    """Content-addressed store of finished run records.

    Parameters
    ----------
    root:
        Directory holding the index (created on first write).
        ``None`` uses the configured default (``configure(root=...)``, else
        the ``REPRO_STORE_DIR`` environment variable) and raises
        :class:`ValueError` when neither is set.

    Examples
    --------
    >>> import tempfile
    >>> from repro.runner import RunSpec
    >>> from repro.store import ResultStore, run_fingerprint
    >>> store = ResultStore(tempfile.mkdtemp())
    >>> spec = RunSpec(strategy="b-tctp", seed=1)
    >>> fp = run_fingerprint(spec)
    >>> store.get(fp) is None
    True
    >>> _ = store.put(fp, {"average_sd": 0.0}, spec)
    >>> store.get(fp)
    {'average_sd': 0.0}
    """

    def __init__(self, root: "str | Path | None" = None) -> None:
        if root is None:
            root = default_root()
            if root is None:
                raise ValueError(
                    "no store root configured: pass ResultStore(root=...), call "
                    "repro.store.configure(root=...), or set REPRO_STORE_DIR"
                )
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self._conn: "sqlite3.Connection | None" = None
        # Reentrant: locked sections call _connection() / _drop(), which
        # take the lock again.  One lock serialises every index statement
        # and the hit/miss counters across the daemon's worker threads.
        self._lock = threading.RLock()

    # -- plumbing --------------------------------------------------------- #

    @cached_property
    def index_path(self) -> Path:
        return self.root / "index.sqlite"

    @property
    def records_dir(self) -> Path:
        """Where earlier versions kept payload files; removed on conversion."""
        return self.root / "records"

    def _connection(self) -> sqlite3.Connection:
        """The store's sqlite connection, opened (and the layout checked) once.

        Resumable execution performs one lookup per cell and one insert per
        miss on this hot path, so the connection is cached on the instance
        rather than reopened per operation.  Writes use ``with
        self._connection() as conn`` — a transaction scope (the ``with``
        commits, it does not close).

        One connection is shared across threads (``check_same_thread=False``)
        because every statement already runs under the store lock; WAL
        journaling keeps concurrent *processes* on the same root from
        blocking readers during a commit, and ``synchronous=FULL`` syncs the
        log on every commit.
        """
        with self._lock:
            if self._conn is None:
                self.root.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    self.index_path, timeout=_SQLITE_TIMEOUT_S, check_same_thread=False
                )
                try:
                    try:
                        conn.execute("PRAGMA journal_mode=WAL")
                    except sqlite3.OperationalError:  # pragma: no cover - e.g. network fs
                        pass  # the rollback journal still works, with coarser locking
                    conn.execute("PRAGMA synchronous=FULL")
                    # A converted store can grow a ``runs`` table again: an
                    # older library, salted alike, re-creates it to write.
                    if (conn.execute("PRAGMA user_version").fetchone()[0] != _LAYOUT_VERSION
                            or conn.execute(_LEGACY_TABLE).fetchone() is not None):
                        self._retry_locked(lambda: self._convert(conn))
                except BaseException:
                    conn.close()
                    raise
                self._conn = conn
            return self._conn

    def _convert(self, conn: sqlite3.Connection) -> None:
        """Create the ``records`` table and move a legacy store's payloads into it.

        The rows land in one transaction under the write lock, so a second
        process converting the same store at once waits and then finds no
        legacy table left.  ``records/`` goes only after the commit, and the
        layout mark only after that: a crash anywhere leaves either the old
        layout, or the new rows plus leftovers the next open removes.
        """
        conn.execute("BEGIN IMMEDIATE")
        try:
            for statement in _SCHEMA:
                conn.execute(statement)
            if conn.execute(_LEGACY_TABLE).fetchone() is not None:
                rows = conn.execute(f"SELECT {_INDEX_COLUMNS}, payload FROM runs").fetchall()
                conn.executemany(_INSERT, self._read_payload_files(rows))
                conn.execute("DROP TABLE runs")
            conn.commit()
        except BaseException:
            conn.rollback()
            raise
        shutil.rmtree(self.records_dir, ignore_errors=True)
        conn.execute(f"PRAGMA user_version = {_LAYOUT_VERSION}")

    def _read_payload_files(self, rows: Iterable[tuple]) -> list[tuple]:
        """Legacy ``runs`` rows with each file path replaced by the file's JSON text."""
        converted = []
        for *columns, name in rows:
            try:
                text = (self.root / name).read_text()
                json.loads(text)
            except (OSError, ValueError):
                continue  # missing or unreadable: a lookup would have dropped it
            converted.append((*columns, text.rstrip("\n")))
        return converted

    def _retry_locked(self, operation):
        """Run ``operation`` retrying on SQLITE_BUSY/LOCKED with backoff.

        WAL allows readers alongside one writer, but two *processes*
        committing at once can still collide after sqlite's own ``timeout``
        expires; a short exponential backoff absorbs the residue instead of
        surfacing a spurious ``database is locked`` to the campaign.
        """
        for attempt in range(_LOCK_RETRIES):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt == _LOCK_RETRIES - 1:
                    raise
                time.sleep(_LOCK_RETRY_BASE_S * (2 ** attempt))

    def _write(self, sql: str, args: Iterable = ()) -> int:
        """One statement in one committed transaction; returns the rows it touched."""
        def _run() -> int:
            with self._connection() as conn:
                return conn.execute(sql, tuple(args)).rowcount

        with self._lock:
            return self._retry_locked(_run)

    def _insert(self, rows: list[tuple]) -> None:
        """``INSERT OR REPLACE`` full rows (index columns + payload) in one transaction."""
        def _run() -> None:
            with self._connection() as conn:
                conn.executemany(_INSERT, rows)

        with self._lock:
            self._retry_locked(_run)

    def _index_exists(self) -> bool:
        return self._conn is not None or self.index_path.exists()

    def fingerprint(self, spec) -> str:
        """Content address of ``spec`` (see :func:`repro.store.run_fingerprint`)."""
        return run_fingerprint(spec)

    # -- read ------------------------------------------------------------- #

    def contains(self, fingerprint: str) -> bool:
        if not self._index_exists():
            return False
        with self._lock:
            row = self._connection().execute(
                "SELECT 1 FROM records WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    def __contains__(self, fingerprint: str) -> bool:
        return self.contains(fingerprint)

    def get(self, fingerprint: str) -> "dict | None":
        """The stored record for ``fingerprint``, or ``None`` on a miss.

        A row whose payload does not parse self-heals: the row is dropped and
        the lookup counts as a miss.
        """
        found = self._lookup(fingerprint)
        return None if found is None else found[1].get("record")

    def get_entry(self, fingerprint: str) -> "StoredRun | None":
        """Like :meth:`get` but returning the full :class:`StoredRun` entry."""
        found = self._lookup(fingerprint)
        return None if found is None else self._entry(fingerprint, *found)

    def _lookup(self, fingerprint: str) -> "tuple[tuple, dict] | None":
        """The row under ``fingerprint`` and its parsed payload, counted as a hit or miss."""
        with self._lock:
            row = self._row(fingerprint)
            payload = None if row is None else _parse(row[-1])
            if payload is None:
                if row is not None:
                    self._drop(fingerprint)
                self.misses += 1
                return None
            self.hits += 1
            return row, payload

    def _row(self, fingerprint: str) -> "tuple | None":
        """The stored row under ``fingerprint`` (index columns + payload), if any."""
        if not self._index_exists():
            return None
        with self._lock:
            return self._connection().execute(
                "SELECT strategy, family, seed, created_at, library_version, payload "
                "FROM records WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()

    def _load_entry(self, fingerprint: str, row: tuple) -> "StoredRun | None":
        payload = _parse(row[-1])
        return None if payload is None else self._entry(fingerprint, row, payload)

    def _entry(self, fingerprint: str, row: tuple, payload: dict) -> StoredRun:
        strategy, family, seed, created_at, version, _text = row
        return StoredRun(
            fingerprint=fingerprint,
            strategy=strategy,
            family=family,
            seed=seed,
            created_at=created_at,
            library_version=version,
            path=self.index_path,
            spec=payload.get("spec"),
            record=payload.get("record"),
        )

    # -- write ------------------------------------------------------------ #

    def put(self, fingerprint: str, record: Mapping[str, Any], spec=None) -> StoredRun:
        """Store one record under ``fingerprint`` (one transaction; idempotent).

        ``spec`` may be a :class:`~repro.runner.RunSpec` (canonicalised here,
        or not at all when its fingerprint was already taken — the payload is
        memoised on the spec object) or an already-canonical payload dict; it
        powers :meth:`query` filters and the index columns, and may be omitted
        for anonymous records.

        Two writers racing on the same fingerprint (daemon workers, or two
        campaign processes sharing a root) are a benign no-op race: both
        write equal record content and the insert is ``INSERT OR REPLACE`` —
        last writer wins, nothing is ever left torn.
        """
        payload_spec: "dict | None"
        if spec is None or isinstance(spec, Mapping):
            payload_spec = dict(spec) if spec is not None else None
        else:
            payload_spec = dict(memoised_run_payload(spec))
        created_at = time.time()
        version = code_salt()
        record = dict(record)
        text = json.dumps(
            {
                "fingerprint": fingerprint,
                "library_version": version,
                "created_at": created_at,
                "spec": payload_spec,
                "record": record,
            },
            allow_nan=True,
            default=_np_safe,
        )
        spec_fields = payload_spec or {}
        family = spec_fields.get("scenario", {}).get("family", "")
        # The index column holds the *canonical* strategy name so queries
        # match every alias spelling; the payload (and record) keep the raw
        # spelling the fingerprint hashed.
        strategy = _canonical_strategy(spec_fields.get("strategy", ""))
        seed = spec_fields.get("seed")
        self._insert([(fingerprint, strategy, family, seed, created_at, version, text)])
        return StoredRun(
            fingerprint=fingerprint,
            strategy=strategy,
            family=family,
            seed=seed,
            created_at=created_at,
            library_version=version,
            path=self.index_path,
            spec=payload_spec,
            record=record,
        )

    def _drop(self, fingerprint: str) -> None:
        self._write("DELETE FROM records WHERE fingerprint = ?", (fingerprint,))

    # -- enumeration / query ---------------------------------------------- #

    def _rows(
        self,
        *,
        strategy: "str | None" = None,
        family: "str | None" = None,
        limit: "int | None" = None,
        payload: bool = True,
    ) -> list[tuple]:
        if not self._index_exists():
            return []
        clauses, args = [], []
        if strategy is not None:
            clauses.append("strategy = ?")
            args.append(_canonical_strategy(strategy))
        if family is not None:
            clauses.append("family = ?")
            args.append(_canonical_family(family))
        sql = f"SELECT {_INDEX_COLUMNS}{', payload' if payload else ''} FROM records"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, fingerprint"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        with self._lock:
            return self._connection().execute(sql, args).fetchall()

    def entries(
        self,
        *,
        strategy: "str | None" = None,
        family: "str | None" = None,
        limit: "int | None" = None,
    ) -> list[StoredRun]:
        """Index-only listing (no payloads loaded), newest first."""
        return [
            StoredRun(
                fingerprint=fp, strategy=s, family=f, seed=seed,
                created_at=created, library_version=version, path=self.index_path,
            )
            for fp, s, f, seed, created, version in self._rows(
                strategy=strategy, family=family, limit=limit, payload=False
            )
        ]

    def query(
        self,
        *,
        strategy: "str | None" = None,
        family: "str | None" = None,
        limit: "int | None" = None,
        where: "Mapping[str, Any] | None" = None,
        **params: Any,
    ) -> list[StoredRun]:
        """Stored runs matching the filters, newest first, payloads loaded.

        ``strategy`` / ``family`` filter on the index (aliases resolve to
        registry names); every other keyword — or the ``where`` mapping, for
        keys that are not valid Python identifiers — filters on record
        columns, scenario/strategy parameters and simulator fields with the
        scalar/range/membership semantics of :mod:`repro.store.query`.

        >>> store.query(strategy="b-tctp", num_targets=(10, 30))  # doctest: +SKIP
        """
        filters = {**(dict(where) if where else {}), **params}
        out: list[StoredRun] = []
        for row in self._rows(strategy=strategy, family=family):
            entry = self._load_entry(row[0], row[1:])
            if entry is None or not matches(entry, filters):
                continue
            out.append(entry)
            if limit is not None and len(out) >= limit:
                break
        return out

    def records(self, **kwargs: Any) -> list[dict]:
        """The record dicts of :meth:`query` (same filters)."""
        return [e.record for e in self.query(**kwargs) if e.record is not None]

    # -- maintenance ------------------------------------------------------ #

    def __len__(self) -> int:
        if not self._index_exists():
            return 0
        with self._lock:
            return self._connection().execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def stats(self) -> dict:
        """Size and provenance summary: entries, payload bytes, versions, hits/misses."""
        versions: dict[str, int] = {}
        entries = payload_bytes = 0
        if self._index_exists():
            # Payloads are ASCII (json.dumps escapes the rest), so the
            # character count is the byte count.
            with self._lock:
                rows = self._connection().execute(
                    "SELECT library_version, COUNT(*), SUM(LENGTH(payload)) "
                    "FROM records GROUP BY library_version"
                ).fetchall()
            for version, count, size in rows:
                versions[version] = count
                entries += count
                payload_bytes += size
        return {
            "root": str(self.root),
            "entries": entries,
            "payload_bytes": payload_bytes,
            "library_versions": versions,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        removed = self._write("DELETE FROM records") if self._index_exists() else 0
        self.hits = 0
        self.misses = 0
        return removed

    def gc(
        self,
        *,
        max_age_days: "float | None" = None,
        keep_other_versions: bool = False,
    ) -> int:
        """Sweep unusable entries; returns the number removed.

        Removes (a) entries written by a different library version — their
        fingerprints carry an old code salt, so they can never hit again —
        unless ``keep_other_versions`` is set; and (b) entries older than
        ``max_age_days``, when given.
        """
        clauses, args = [], []
        if not keep_other_versions:
            clauses.append("library_version != ?")
            args.append(code_salt())
        if max_age_days is not None:
            clauses.append("created_at < ?")
            args.append(time.time() - max_age_days * 86_400.0)
        if not clauses or not self._index_exists():
            return 0
        return self._write("DELETE FROM records WHERE " + " OR ".join(clauses), args)

    def merge_from(self, source: "ResultStore | str | Path") -> dict:
        """Union ``source``'s entries into this store; returns the counts.

        The shard-merge primitive behind ``repro-patrol store merge``: every
        readable entry of ``source`` is copied over **verbatim** — payload
        text, creation time, library version and index columns all preserved
        — so a merged store is byte-identical to one that executed every
        shard itself, and merging is idempotent.  Entries whose fingerprint
        this store already holds are *duplicate-benign*: when the two records
        agree (canonical JSON comparison) the copy is skipped, and when they
        differ the merge raises :class:`MergeConflictError` **before**
        touching anything else — conflicting shards are a provenance problem
        to investigate, not to paper over.  Source rows whose payload does not
        parse are skipped, exactly as lookups treat them.  Every copied row
        lands in one transaction.  Opening a source in the file-per-record
        layout of earlier versions converts it first.

        Returns ``{"merged": copied, "duplicates": skipped}``.
        """
        if not isinstance(source, ResultStore):
            source = ResultStore(source)
        pending: list[tuple] = []
        duplicates = 0
        for row in source._rows():
            fingerprint = row[0]
            src = source._load_entry(fingerprint, row[1:])
            if src is None:
                continue
            mine_row = self._row(fingerprint)
            mine = None if mine_row is None else self._load_entry(fingerprint, mine_row)
            if mine is not None:
                mine_json = json.dumps(mine.record, sort_keys=True, default=_np_safe)
                src_json = json.dumps(src.record, sort_keys=True, default=_np_safe)
                if mine_json != src_json:
                    raise MergeConflictError(fingerprint, source.root)
                duplicates += 1
                continue
            pending.append(row)
        # The whole source is vetted before the first row lands, so a
        # conflict anywhere aborts the merge with this store untouched.
        if pending:
            self._insert(pending)
        return {"merged": len(pending), "duplicates": duplicates}


def _canonical_strategy(name: str) -> str:
    from repro.baselines.base import canonical_strategy_name

    try:
        return canonical_strategy_name(name)
    except ValueError:
        return name  # query for an unregistered name simply matches nothing


def _canonical_family(name: str) -> str:
    from repro.scenarios.registry import canonical_scenario_family

    try:
        return canonical_scenario_family(name)
    except ValueError:
        return name


# --------------------------------------------------------------------------- #
# Default store: configure / clear / stats (mirrors repro.geometry.cache)
# --------------------------------------------------------------------------- #

_CONFIGURED_ROOT: "Path | None" = None
_ENABLED: bool = True


def configure(*, root: "str | Path | None" = None, enabled: "bool | None" = None) -> None:
    """Set the default store root and/or the implicit-resume switch.

    ``root`` (when given) becomes the default store directory, taking
    precedence over ``REPRO_STORE_DIR``.  ``enabled=False`` stops campaigns
    and experiments from resuming *implicitly* (``store=None``); explicitly
    passing a store or ``store=True`` still works.  ``None`` leaves either
    setting unchanged.
    """
    global _CONFIGURED_ROOT, _ENABLED
    if root is not None:
        _CONFIGURED_ROOT = Path(root)
    if enabled is not None:
        _ENABLED = bool(enabled)


def default_root() -> "Path | None":
    """The configured default store directory, or ``None`` when unset.

    Resolution order: ``configure(root=...)``, then a non-empty
    ``REPRO_STORE_DIR`` environment variable (read at call time).
    """
    if _CONFIGURED_ROOT is not None:
        return _CONFIGURED_ROOT
    env = os.environ.get("REPRO_STORE_DIR", "").strip()
    return Path(env) if env else None


def _fallback_root() -> Path:
    cache_home = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro-patrol" / "store"


def default_store(*, create: bool = False) -> "ResultStore | None":
    """The default :class:`ResultStore`, or ``None`` when no root is configured.

    ``create=True`` falls back to the user cache directory
    (``$XDG_CACHE_HOME/repro-patrol/store``) instead of returning ``None`` —
    the behaviour behind ``store=True`` / the CLI's bare ``--store``.
    """
    root = default_root()
    if root is None:
        if not create:
            return None
        root = _fallback_root()
    return ResultStore(root)


def store_enabled() -> bool:
    """Whether implicit resume (``store=None``) is active and a root is configured."""
    return _ENABLED and default_root() is not None


def resolve_store(store: Any) -> "ResultStore | None":
    """Normalise a ``store=`` argument into a :class:`ResultStore` or ``None``.

    * ``None`` — the default store when one is configured **and** enabled
      (set ``REPRO_STORE_DIR`` to make every campaign resumable), else no
      store;
    * ``False`` — explicitly no store (the opt-out);
    * ``True`` — the default store, created under the user cache directory
      when no root is configured;
    * a path or :class:`ResultStore` — that store.
    """
    if store is None:
        return default_store() if _ENABLED else None
    if store is False:
        return None
    if store is True:
        return default_store(create=True)
    if isinstance(store, ResultStore):
        return store
    if isinstance(store, (str, Path)):
        return ResultStore(store)
    raise TypeError(
        f"store must be None, a bool, a path or a ResultStore, got {type(store).__name__}"
    )


def clear_store() -> int:
    """Clear the default store (no-op returning 0 when none is configured)."""
    store = default_store()
    return store.clear() if store is not None else 0


def store_stats() -> "dict | None":
    """Stats of the default store, or ``None`` when none is configured."""
    store = default_store()
    return store.stats() if store is not None else None
