"""Durable small-file writes shared across the library.

Several subsystems persist small control-plane files — checkpoint
documents, final state snapshots, port files, WAL snapshots — and all
of them need the same property: a crash (or power loss) mid-write must
leave either the previous file or the complete new one, never a torn
hybrid.  :func:`atomic_write_text` / :func:`atomic_write_bytes` are the
one implementation of the pattern the rest of the code refers to:

1. write the payload to a temporary file *in the destination
   directory* (so the final rename never crosses a filesystem);
2. flush and ``os.fsync`` the temporary file, making its *contents*
   durable before any name points at them;
3. ``os.replace`` it over the destination — atomic on POSIX.

Skipping step 2 is the classic tear: ``os.replace`` orders the rename
against nothing, so after power loss the new name can point at
zero-length or partial data.
"""

from __future__ import annotations

import contextlib
import os
import stat
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | Path, payload: bytes, *,
                       fsync: bool = True) -> Path:
    """Atomically replace ``path`` with ``payload``; returns the path.

    With ``fsync`` (the default) the payload is durable on disk before
    the rename, so the destination never names torn data even across
    power loss.  ``fsync=False`` keeps only the atomic-rename property
    (crash-consistent against process death, not power loss) — for
    advisory files where latency matters more than durability.

    An existing destination keeps its permission bits; a new one gets
    :func:`tempfile.mkstemp`'s owner-only ``0600``.

    The caller handles ``OSError`` (callers wrap it in their own typed
    error); the temporary file is removed on failure.
    """
    path = Path(path)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(handle.fileno(),
                          stat.S_IMODE(os.stat(path).st_mode))
            handle.write(payload)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except OSError:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str | Path, text: str, *,
                      fsync: bool = True) -> Path:
    """Atomically replace ``path`` with UTF-8 ``text``.

    The text twin of :func:`atomic_write_bytes`; same durability
    contract.
    """
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)
