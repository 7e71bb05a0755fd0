"""Crash-safe persistence: checksummed snapshots and a streaming WAL.

Three layers, smallest first:

- :mod:`repro.persist.atomic` — the temp + fsync + rename write
  discipline every artifact (and ``save_trees``) goes through.
- :mod:`repro.persist.container` — the versioned, magic-tagged,
  per-section-CRC32 snapshot container; :func:`inspect_container` is the
  diagnostics view the CLI's ``stats --snapshot`` prints.
- :mod:`repro.persist.snapshot` / :mod:`repro.persist.wal` — the
  :class:`~repro.session.TreeCollection` codec (save / load / sidecar
  auto-discovery) and the append-only write-ahead log behind
  :meth:`repro.stream.engine.StreamingJoin.recover`.

The public entry points live on the objects being persisted —
``TreeCollection.save`` / ``.load`` / ``.from_file(sidecar=...)`` and
``StreamingJoin(wal=...)`` / ``.recover`` — this package is the
machinery underneath.  Failure semantics in one line: explicit loads
raise typed :class:`~repro.errors.PersistenceError` subclasses;
implicit sidecar loads warn and fall back to a cold rebuild, never a
wrong answer.
"""

from repro.persist.atomic import replace_on_success
from repro.persist.container import (
    FORMAT_VERSION,
    inspect_container,
    read_container,
    write_container,
)
from repro.persist.snapshot import (
    SNAPSHOT_SUFFIX,
    load_collection,
    save_collection,
    sidecar_path,
    source_fingerprint,
)
from repro.persist.wal import WAL_FSYNC_POLICIES, StreamWAL, scan_wal

__all__ = [
    "FORMAT_VERSION",
    "SNAPSHOT_SUFFIX",
    "WAL_FSYNC_POLICIES",
    "StreamWAL",
    "inspect_container",
    "load_collection",
    "read_container",
    "replace_on_success",
    "save_collection",
    "scan_wal",
    "sidecar_path",
    "source_fingerprint",
    "write_container",
]
