"""A per-record-CRC'd append-only write-ahead log for streaming ingest.

The streaming engine's durability story: every arrival is appended to
the log *before* it mutates engine state, so after a crash
:meth:`repro.stream.engine.StreamingJoin.recover` replays the log and
lands on a state **bit-identical to a batch join over the logged
prefix** — the engine's prefix-equivalence invariant extended
across process death.

Layout
------
``RPRWAL\\x01\\x01`` magic, then length-prefixed records::

    u32 payload length | u32 CRC32(payload) | payload

The first record is the JSON header (format, library version, tau, the
preparation-keying config fields); every later record is one arrival's
canonical bracket text (UTF-8), so a label may hold any character.  A
tree read from text already holds that text (:mod:`repro.tree.node`),
so :meth:`StreamWAL.append` writes it as is, and recovery reads each
record back with ``Tree.from_bracket``: the recovered trees hold text
too, and their records are built from it.

Appends never rewrite earlier bytes, so the only damage a crash can
cause is a **torn final record** — a short tail or a half-written frame
— which recovery detects (frame runs past EOF, or a checksum mismatch on
the *last* record) and drops.  A checksum mismatch with valid data
*after* it cannot come from a torn append: the log was damaged at rest,
and silently skipping the hole would replay a stream with missing
arrivals — that raises :class:`~repro.errors.WALCorruptError` carrying
salvage stats (records and bytes of the intact prefix, offset of the
damage).

Fsync policy
------------
``fsync="always"`` makes every arrival durable before :meth:`append`
returns (one ``fsync`` per record — the safe default is deliberately
not this, it costs ~a disk flush per tree).  ``"batch"`` (default)
flushes OS buffers per record but fsyncs only at :meth:`sync` points —
the engine calls it on ``flush()`` and ``close()`` — so a crash loses
at most the records since the last flush point.  ``"never"`` leaves
durability to the OS entirely (tests, throwaway runs).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Optional

from repro.errors import InvalidParameterError, SnapshotFormatError, WALCorruptError
from repro.obs.trace import NULL_TRACER

__all__ = ["WAL_MAGIC", "WAL_FSYNC_POLICIES", "StreamWAL", "scan_wal"]

WAL_MAGIC = b"RPRWAL\x01\x01"
WAL_FORMAT_VERSION = 1

WAL_FSYNC_POLICIES = ("always", "batch", "never")

_FRAME = struct.Struct("<II")


def _check_policy(fsync: str) -> str:
    if fsync not in WAL_FSYNC_POLICIES:
        raise InvalidParameterError(
            f"unknown WAL fsync policy {fsync!r}; choose from "
            f"{list(WAL_FSYNC_POLICIES)}"
        )
    return fsync


class StreamWAL:
    """The append side of the log (the engine's durability hook).

    Use :meth:`create` for a fresh stream (truncates, writes the
    header) or :meth:`recover`-driven :meth:`reopen` to continue a
    salvaged log.  Not thread-safe — the engine serializes arrivals.
    """

    def __init__(
        self,
        path: str | Path,
        handle,
        fsync: str,
        records: int,
        tracer=None,
    ):
        self.path = Path(path)
        self.fsync = _check_policy(fsync)
        self.records = records  # arrival records (header not counted)
        self.synced_records = records if handle is None else 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._handle = handle
        self._dirty = False

    @classmethod
    def create(
        cls,
        path: str | Path,
        tau: int,
        config,
        fsync: str = "batch",
        tracer=None,
    ) -> "StreamWAL":
        """Start a fresh log for a new stream (truncates ``path``).

        A bad ``fsync`` policy raises before ``path`` is touched."""
        from repro import __version__
        from repro.persist.snapshot import _config_fields

        _check_policy(fsync)
        header = {
            "format": WAL_FORMAT_VERSION,
            "library_version": __version__,
            "tau": tau,
            "config": _config_fields(config),
        }
        payload = json.dumps(header, sort_keys=True).encode("utf-8")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "wb")
        try:
            handle.write(WAL_MAGIC)
            handle.write(
                _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            )
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())  # the header is durable regardless of policy
        except BaseException:
            handle.close()
            raise
        wal = cls(path, handle, fsync, records=0, tracer=tracer)
        wal.synced_records = 0
        return wal

    @classmethod
    def reopen(
        cls,
        path: str | Path,
        good_bytes: int,
        records: int,
        fsync: str = "batch",
        tracer=None,
    ) -> "StreamWAL":
        """Continue appending after recovery.

        Truncates the file to the salvaged prefix (dropping a torn tail)
        and positions at its end; ``records`` is the salvaged arrival
        count, so record accounting continues seamlessly.  A bad
        ``fsync`` policy raises before ``path`` is touched.
        """
        _check_policy(fsync)
        handle = open(path, "r+b")
        try:
            handle.truncate(good_bytes)
            handle.seek(good_bytes)
        except BaseException:
            handle.close()
            raise
        wal = cls(path, handle, fsync, records=records, tracer=tracer)
        wal.synced_records = records
        return wal

    def append(self, bracket: str) -> None:
        """Log one arrival (call *before* mutating engine state)."""
        payload = bracket.encode("utf-8")
        handle = self._handle
        handle.write(_FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
        handle.write(payload)
        self.records += 1
        if self.fsync == "always":
            handle.flush()
            os.fsync(handle.fileno())
            self.synced_records = self.records
        elif self.fsync == "batch":
            handle.flush()
            self._dirty = True
        else:
            self._dirty = True

    def sync(self) -> None:
        """Make everything appended so far durable (a flush point)."""
        if self._handle is None or not self._dirty:
            return
        with self.tracer.span("wal.sync", records=self.records,
                              fsync=self.fsync):
            self._handle.flush()
            if self.fsync != "never":
                os.fsync(self._handle.fileno())
                self.synced_records = self.records
            self._dirty = False

    def close(self) -> None:
        if self._handle is None:
            return
        try:
            self.sync()
        finally:
            self._handle.close()
            self._handle = None

    def describe(self) -> dict:
        """Counters for ``StreamStats.extra['wal']``."""
        return {
            "path": str(self.path),
            "fsync": self.fsync,
            "records": self.records,
            "synced_records": self.synced_records,
        }


def scan_wal(path: str | Path) -> dict:
    """Read a log, tolerating a torn tail; the replay side of recovery.

    Returns ``{"header": dict, "brackets": [str, ...], "salvage": {...}}``
    where ``salvage`` records ``records`` (complete arrivals),
    ``good_bytes`` (the intact prefix recovery may truncate to) and
    ``torn_bytes`` (length of the dropped tail, ``0`` for a clean log).

    Raises
    ------
    SnapshotFormatError
        Bad magic, unreadable header, or an unsupported format version.
    WALCorruptError
        Damage strictly before the final record (a checksum mismatch or
        impossible frame with valid data after it) — replaying past it
        would silently drop arrivals.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotFormatError(f"{path}: cannot read WAL ({exc})") from exc
    if not data.startswith(WAL_MAGIC):
        raise SnapshotFormatError(
            f"{path}: not a repro WAL (magic {data[:len(WAL_MAGIC)]!r})"
        )

    # Frame the whole file first: records are (offset, end, payload, ok).
    frames = []
    pos = len(WAL_MAGIC)
    torn_at: Optional[int] = None
    while pos < len(data):
        if pos + _FRAME.size > len(data):
            torn_at = pos  # crash inside a frame prefix
            break
        length, crc = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        if end > len(data):
            torn_at = pos  # crash inside a payload
            break
        payload = data[pos + _FRAME.size:end]
        frames.append((pos, end, payload, (zlib.crc32(payload) & 0xFFFFFFFF) == crc))
        pos = end

    if not frames:
        raise SnapshotFormatError(
            f"{path}: WAL has no complete header record"
        )

    # A checksum failure on any record *except the last complete one* is
    # mid-log damage; on the last (with nothing after it) it is a torn
    # final overwrite and treated like a short tail.
    bad = [index for index, frame in enumerate(frames) if not frame[3]]
    if bad:
        first_bad = bad[0]
        is_final = first_bad == len(frames) - 1 and torn_at is None
        if not is_final:
            offset, _, _, _ = frames[first_bad]
            raise WALCorruptError(
                f"{path}: record {first_bad} at byte {offset} fails its "
                "CRC32 check with valid records after it — the log is "
                "damaged mid-stream; refusing to replay past the hole",
                salvaged_records=max(first_bad - 1, 0),
                good_bytes=offset,
                offset=offset,
            )
        torn_at = frames[first_bad][0]
        frames = frames[:first_bad]

    if not frames:
        raise SnapshotFormatError(
            f"{path}: WAL header record is damaged beyond recovery"
        )

    head_payload = frames[0][2]
    try:
        header = json.loads(head_payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(
            f"{path}: WAL header is not valid JSON ({exc})"
        ) from exc
    if header.get("format") != WAL_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path}: WAL format version {header.get('format')} is not "
            f"supported (this library reads version {WAL_FORMAT_VERSION})"
        )

    brackets = [payload.decode("utf-8") for _, _, payload, _ in frames[1:]]
    good_bytes = frames[-1][1]
    return {
        "header": header,
        "brackets": brackets,
        "salvage": {
            "records": len(brackets),
            "good_bytes": good_bytes,
            "torn_bytes": len(data) - good_bytes if torn_at is not None else 0,
        },
    }
