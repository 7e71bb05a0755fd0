"""Atomic write discipline shared by every on-disk artifact.

A crash (or a full disk) halfway through a plain ``open(path, "w")``
leaves a silently truncated file that later loads cleanly — the worst
failure mode a dataset or snapshot writer can have.  Every writer in
this library therefore goes through the same three-step discipline:

1. write the complete payload to a temporary file **in the same
   directory** as the target (same filesystem, so the rename is atomic);
2. flush and ``os.fsync`` the temporary file, so the bytes are durable
   before the name is;
3. ``os.replace`` it over the target — readers see either the old
   complete file or the new complete file, never a prefix — and fsync
   the directory (best effort; not all platforms allow it) so the
   rename itself survives a crash.

On any error the temporary file is removed and the target is untouched.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator

__all__ = ["replace_on_success", "fsync_file"]


def fsync_file(path: Path) -> None:
    """Flush ``path``'s content to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(directory: Path) -> None:
    # Durability of the rename itself; best effort because directories
    # cannot be opened on some platforms/filesystems (e.g. Windows).
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def replace_on_success(path: str | Path) -> Iterator[Path]:
    """Yield a temporary path that atomically replaces ``path`` on success.

    The caller writes (and closes) the temporary file inside the
    ``with`` block; a clean exit fsyncs it and renames it over ``path``.
    An exception leaves ``path`` exactly as it was and removes the
    temporary file.  The temporary name keeps no meaningful suffix, so
    writers that choose behavior by suffix (e.g. gzip on ``.gz``) must
    decide from the *final* path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        yield tmp
        fsync_file(tmp)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()
