"""The snapshot container (repro.persist.container) and atomic writes."""

import struct
import zlib

import pytest

from repro.errors import SnapshotFormatError, SnapshotIntegrityError
from repro.persist.atomic import replace_on_success
from repro.persist.container import (
    FORMAT_VERSION,
    MAGIC,
    inspect_container,
    read_container,
    write_container,
)

SECTIONS = [
    ("meta", b'{"hello": 1}'),
    ("payload", bytes(range(256)) * 7),
    ("empty", b""),
]


def container_bytes(path, sections=SECTIONS, library_version="1.0"):
    """The bytes ``write_container`` puts at ``path``."""
    write_container(path, sections, library_version=library_version)
    return path.read_bytes()


def frame_offsets(data: bytes):
    """Parse the container framing; yields (name, payload_start, payload_end).

    Reimplemented from the spec in the module docstring (not imported from
    the code under test) so a framing bug cannot hide from these tests.
    """
    pos = len(MAGIC) + 4  # magic + format version
    (lib_len,) = struct.unpack_from("<H", data, pos)
    pos += 2 + lib_len
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    out = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + name_len].decode("utf-8")
        pos += name_len
        (payload_len,) = struct.unpack_from("<Q", data, pos)
        pos += 8 + 4  # length + crc
        out.append((name, pos, pos + payload_len))
        pos += payload_len
    assert pos == len(data)
    return out


class TestRoundTrip:
    def test_sections_and_order_survive(self, tmp_path):
        path = tmp_path / "c.snap"
        write_container(path, SECTIONS, library_version="9.9.9")
        library_version, sections = read_container(path)
        assert library_version == "9.9.9"
        assert list(sections.items()) == SECTIONS

    def test_inspect_reports_provenance(self, tmp_path):
        path = tmp_path / "c.snap"
        write_container(path, SECTIONS, library_version="9.9.9")
        info = inspect_container(path)
        assert info["format_version"] == FORMAT_VERSION
        assert info["library_version"] == "9.9.9"
        assert info["crc_ok"] is True
        assert [s["name"] for s in info["sections"]] == [n for n, _ in SECTIONS]
        assert [s["bytes"] for s in info["sections"]] == [
            len(p) for _, p in SECTIONS
        ]

    def test_encoding_is_deterministic(self, tmp_path):
        assert container_bytes(tmp_path / "a.snap") == container_bytes(
            tmp_path / "b.snap"
        )

    def test_chunked_payloads_frame_like_whole_ones(self, tmp_path):
        # A payload may stream in as chunks (a list or a generator); its
        # length and CRC are those of the joined bytes.
        chunked = [
            (name, iter([payload[:5], b"", payload[5:]]) if k % 2
             else [payload[:3], payload[3:]])
            for k, (name, payload) in enumerate(SECTIONS)
        ]
        assert container_bytes(tmp_path / "chunked.snap", chunked) == (
            container_bytes(tmp_path / "whole.snap")
        )

    def test_sections_are_views_into_one_read(self, tmp_path):
        path = tmp_path / "c.snap"
        write_container(path, SECTIONS, library_version="1.0")
        _, sections = read_container(path)
        assert all(
            isinstance(view, memoryview) and view.readonly
            for view in sections.values()
        )
        assert len({id(view.obj) for view in sections.values()}) == 1


class TestStructuralDamage:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_container(path)
        with pytest.raises(SnapshotFormatError):
            inspect_container(path)

    def test_unsupported_format_version(self, tmp_path):
        path = tmp_path / "c.snap"
        data = bytearray(container_bytes(path))
        struct.pack_into("<I", data, len(MAGIC), FORMAT_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="version"):
            read_container(path)

    def test_truncation_anywhere_in_framing(self, tmp_path):
        # Cut the file at every section boundary and a byte inside each
        # frame: every cut must be a typed structural error, never a
        # partial read.
        path = tmp_path / "c.snap"
        write_container(path, SECTIONS, library_version="1.0")
        data = path.read_bytes()
        cuts = {0, 4, len(MAGIC) + 2}
        for _, start, end in frame_offsets(data):
            cuts.update((start - 1, start, end - 1))
        for cut in sorted(cut for cut in cuts if cut < len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(SnapshotFormatError, match="truncated|magic"):
                read_container(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "c.snap"
        write_container(path, SECTIONS, library_version="1.0")
        path.write_bytes(path.read_bytes() + b"\x00garbage")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            read_container(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="cannot read"):
            read_container(tmp_path / "absent.snap")

    def test_library_version_bytes_are_provenance_only(self, tmp_path):
        # No CRC covers the header's library version, and nothing checks
        # it: bytes that are not UTF-8 read as replacement characters.
        path = tmp_path / "c.snap"
        data = bytearray(container_bytes(path))
        data[len(MAGIC) + 4 + 2] = 0xFF
        path.write_bytes(bytes(data))
        library_version, sections = read_container(path)
        assert library_version == "\ufffd.0"
        assert inspect_container(path)["library_version"] == library_version
        assert list(sections.items()) == SECTIONS


class TestChecksumDamage:
    def test_bit_flip_in_every_section_is_detected(self, tmp_path):
        path = tmp_path / "c.snap"
        write_container(path, SECTIONS, library_version="1.0")
        pristine = path.read_bytes()
        for name, start, end in frame_offsets(pristine):
            if start == end:  # empty payload: nothing to flip
                continue
            damaged = bytearray(pristine)
            damaged[(start + end) // 2] ^= 0x01
            path.write_bytes(bytes(damaged))
            with pytest.raises(SnapshotIntegrityError, match=name):
                read_container(path)

    def test_inspect_survives_checksum_damage(self, tmp_path):
        path = tmp_path / "c.snap"
        write_container(path, SECTIONS, library_version="1.0")
        data = bytearray(path.read_bytes())
        name, start, end = frame_offsets(bytes(data))[1]
        data[start] ^= 0xFF
        path.write_bytes(bytes(data))
        info = inspect_container(path)
        assert info["crc_ok"] is False
        flags = {s["name"]: s["crc_ok"] for s in info["sections"]}
        assert flags == {"meta": True, "payload": False, "empty": True}

    def test_crc_is_crc32_of_payload(self, tmp_path):
        data = container_bytes(tmp_path / "c.snap", [("x", b"abc")])
        assert struct.pack("<I", zlib.crc32(b"abc") & 0xFFFFFFFF) in data


def replace_with(path, data: bytes) -> None:
    with replace_on_success(path) as tmp:
        tmp.write_bytes(data)


class TestAtomicWrites:
    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "f.bin"
        replace_with(path, b"old contents")
        with pytest.raises(RuntimeError):
            with replace_on_success(path) as tmp:
                tmp.write_bytes(b"half-writ")
                raise RuntimeError("crash mid-write")
        assert path.read_bytes() == b"old contents"
        assert list(tmp_path.iterdir()) == [path]  # temp cleaned up

    def test_successful_replace(self, tmp_path):
        path = tmp_path / "f.bin"
        replace_with(path, b"old")
        replace_with(path, b"new")
        assert path.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [path]
