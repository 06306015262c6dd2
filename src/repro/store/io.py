"""Atomic file writes for exports, manifests and traces.

An artifact must never be seen half-written: a campaign killed mid-export,
a full disk, or two processes writing the same file must all leave either
the previous file or the complete new one — never a truncated JSON
document.  The standard recipe is used everywhere: write to a temporary file
*in the destination directory* (so the final rename never crosses a
filesystem boundary) and publish it with :func:`os.replace`, which is atomic
on POSIX and Windows alike.

Fsync policy: these writes are atomic but not fsync'd, so a power cut may
lose the newest file (never tear it).  The result store itself writes no
files: its records are rows of one SQLite index in WAL mode with
``synchronous=FULL``, so a put is durable when it returns (see
:mod:`repro.store.store`).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["atomic_write_text", "atomic_write_json"]


def atomic_write_text(
    path: "str | Path",
    text: str,
    *,
    newline: "str | None" = None,
    encoding: str = "utf-8",
) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + :func:`os.replace`).

    Parameters
    ----------
    path:
        Destination; parent directories are created as needed.
    newline:
        Passed through to :func:`open` — use ``""`` for CSV payloads so
        embedded line endings are written verbatim on every platform.
    encoding:
        Text encoding of the file (UTF-8 by default).

    Returns the destination path.  On any failure the temporary file is
    removed and the destination is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding, newline=newline) as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def atomic_write_json(
    path: "str | Path",
    payload: Any,
    *,
    indent: "int | None" = None,
    sort_keys: bool = False,
    allow_nan: bool = True,
    default=None,
) -> Path:
    """Serialise ``payload`` and write it atomically; returns the path.

    ``allow_nan`` defaults to ``True`` (unlike the strict campaign exports):
    store payloads must round-trip ``NaN`` metric values bit for bit, and
    Python's :mod:`json` both emits and re-parses the ``NaN`` token natively.
    """
    text = json.dumps(
        payload, indent=indent, sort_keys=sort_keys, allow_nan=allow_nan, default=default
    )
    return atomic_write_text(path, text + "\n")
