"""The snapshot container: a magic-tagged, versioned, per-section-CRC file.

Every persisted artifact except the append-only WAL uses this one
format.  The layout is deliberately dumb — named byte sections behind
checksums — because the *sections* carry the schema:

``RPRSNAP\\x01`` magic (8 bytes)
``format_version``  u32 LE — bumped on incompatible layout changes
``library_version`` u16 length + utf-8 (provenance only, never checked)
``section_count``   u32 LE
then per section:
``name``    u16 length + utf-8
``payload`` u64 length + u32 CRC32 + bytes

The reader verifies **every** CRC before returning anything — a
snapshot is either wholly trustworthy or rejected, there is no partial
read — mirroring the per-envelope CRC discipline of
:func:`repro.resilience.faults.seal` at file granularity.  Structural
damage (bad magic, unknown version, truncation inside the framing)
raises :class:`~repro.errors.SnapshotFormatError`; a well-framed section
whose bytes fail their checksum raises
:class:`~repro.errors.SnapshotIntegrityError`.

Neither direction copies the whole file.  The reader reads the file once
and returns each section as a read-only ``memoryview`` into those bytes.
The writer streams each section to the file as it comes: a payload is
either a bytes-like object or an iterable of bytes chunks, and the
length and CRC of a section, and the section count, are written after
its bytes into slots left for them.

:func:`inspect_container` is the forgiving sibling for diagnostics (the
CLI's ``stats --snapshot``): it reports format/library versions and
per-section sizes and CRC status without raising on checksum damage.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Iterable, Union

from repro.errors import SnapshotFormatError, SnapshotIntegrityError
from repro.persist.atomic import replace_on_success

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "write_container",
    "read_container",
    "inspect_container",
]

MAGIC = b"RPRSNAP\x01"
FORMAT_VERSION = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# Sanity bounds: a length field larger than these means the framing is
# garbage, not that someone really has a 2**63-byte section.
_MAX_NAME = 1 << 12

#: A section payload: bytes-like, or an iterable of bytes chunks.
Payload = Union[bytes, bytearray, memoryview, Iterable[bytes]]


def _write_frames(handle, sections, library_version, format_version) -> None:
    """Write the container to the seekable binary ``handle``, one chunk
    at a time (see the module docstring)."""
    lib = library_version.encode("utf-8")
    handle.write(MAGIC + _U32.pack(format_version) + _U16.pack(len(lib)) + lib)
    count_at = handle.tell()
    handle.write(_U32.pack(0))
    count = 0
    for name, payload in sections:
        encoded = name.encode("utf-8")
        handle.write(_U16.pack(len(encoded)) + encoded)
        frame_at = handle.tell()
        handle.write(bytes(_U64.size + _U32.size))
        if isinstance(payload, (bytes, bytearray, memoryview)):
            payload = (payload,)
        length = crc = 0
        for chunk in payload:
            handle.write(chunk)
            length += len(chunk)
            crc = zlib.crc32(chunk, crc)
        end = handle.tell()
        handle.seek(frame_at)
        handle.write(_U64.pack(length) + _U32.pack(crc))
        handle.seek(end)
        count += 1
    end = handle.tell()
    handle.seek(count_at)
    handle.write(_U32.pack(count))
    handle.seek(end)


def write_container(
    path: str | Path,
    sections: Iterable[tuple[str, Payload]],
    library_version: str,
    format_version: int = FORMAT_VERSION,
) -> None:
    """Atomically write ``sections`` to ``path`` (temp + fsync + rename),
    streaming each payload to the file without joining the whole file."""
    with replace_on_success(path) as tmp:
        with open(tmp, "wb") as handle:
            _write_frames(handle, sections, library_version, format_version)


class _Cursor:
    """Bounds-checked reads over the container bytes."""

    def __init__(self, data: memoryview, path: Path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, count: int, what: str) -> memoryview:
        end = self.pos + count
        if end > len(self.data):
            raise SnapshotFormatError(
                f"{self.path}: truncated snapshot — expected {count} bytes "
                f"of {what} at offset {self.pos}, file ends at {len(self.data)}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u16(self, what: str) -> int:
        return _U16.unpack(self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]


def _read_frames(path: Path, data: memoryview):
    """Yield ``(name, payload, crc_stored, crc_ok)`` after header checks."""
    cursor = _Cursor(data, path)
    magic = cursor.take(len(MAGIC), "magic")
    if magic != MAGIC:
        raise SnapshotFormatError(
            f"{path}: not a repro snapshot (magic {magic!r})"
        )
    format_version = cursor.u32("format version")
    if format_version != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path}: snapshot format version {format_version} is not "
            f"supported (this library reads version {FORMAT_VERSION})"
        )
    lib_len = cursor.u16("library version length")
    library_version = str(
        cursor.take(lib_len, "library version"), "utf-8", "replace"
    )
    count = cursor.u32("section count")
    frames = []
    for position in range(count):
        name_len = cursor.u16(f"section {position} name length")
        if name_len > _MAX_NAME:
            raise SnapshotFormatError(
                f"{path}: section {position} name length {name_len} is "
                "implausible — framing is damaged"
            )
        name = str(
            cursor.take(name_len, f"section {position} name"), "utf-8", "replace"
        )
        payload_len = cursor.u64(f"section {name!r} payload length")
        crc_stored = cursor.u32(f"section {name!r} checksum")
        payload = cursor.take(payload_len, f"section {name!r} payload")
        crc_ok = (zlib.crc32(payload) & 0xFFFFFFFF) == crc_stored
        frames.append((name, payload, crc_stored, crc_ok))
    if cursor.pos != len(data):
        raise SnapshotFormatError(
            f"{path}: {len(data) - cursor.pos} trailing bytes after the "
            "last section — framing is damaged"
        )
    return format_version, library_version, frames


def read_container(path: str | Path) -> tuple[str, dict[str, memoryview]]:
    """Read and fully verify a container.

    Returns ``(library_version, sections)`` where ``sections`` preserves
    write order and maps each name to a read-only ``memoryview`` of its
    payload, inside the one copy of the file read.  Raises
    :class:`SnapshotFormatError` on structural damage and
    :class:`SnapshotIntegrityError` on the first checksum mismatch —
    nothing is returned from a damaged file.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotFormatError(f"{path}: cannot read snapshot ({exc})") from exc
    _, library_version, frames = _read_frames(path, memoryview(data))
    sections: dict[str, memoryview] = {}
    for name, payload, crc_stored, crc_ok in frames:
        if not crc_ok:
            raise SnapshotIntegrityError(
                f"{path}: section {name!r} fails its CRC32 check "
                f"(stored {crc_stored:#010x}) — the snapshot is damaged"
            )
        sections[name] = payload
    return library_version, sections


def inspect_container(path: str | Path) -> dict:
    """Provenance of a snapshot without failing on checksum damage.

    Structural damage still raises :class:`SnapshotFormatError` (there
    is nothing meaningful to report from un-frameable bytes); checksum
    damage is reported per section under ``crc_ok``.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotFormatError(f"{path}: cannot read snapshot ({exc})") from exc
    format_version, library_version, frames = _read_frames(
        path, memoryview(data)
    )
    return {
        "path": str(path),
        "bytes": len(data),
        "format_version": format_version,
        "library_version": library_version,
        "crc_ok": all(crc_ok for _, _, _, crc_ok in frames),
        "sections": [
            {"name": name, "bytes": len(payload), "crc_ok": crc_ok}
            for name, payload, _, crc_ok in frames
        ],
    }
