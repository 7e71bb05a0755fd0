"""The streaming write-ahead log (repro.persist.wal) and engine recovery."""

import contextlib
import gc
import struct
import warnings
import zlib

import pytest

from repro.core.join import PartSJConfig
from repro.errors import (
    InvalidParameterError,
    SnapshotFormatError,
    WALCorruptError,
)
from repro.persist.wal import WAL_MAGIC, StreamWAL, scan_wal
from repro.stream import StreamingJoin
from repro.tree.bracket import to_bracket
from tests.conftest import make_cluster_forest

_FRAME = struct.Struct("<II")

BRACKETS = ["{a{b}{c}}", "{a{b}}", "{a{b}{c{d}}}", "{b{a}}"]


def write_log(path, brackets=BRACKETS, tau=1):
    wal = StreamWAL.create(path, tau, PartSJConfig().resolved())
    for bracket in brackets:
        wal.append(bracket)
    wal.close()
    return path


def record_spans(path):
    """(start, end) byte spans of each record, header first (from the spec)."""
    data = path.read_bytes()
    spans, pos = [], len(WAL_MAGIC)
    while pos < len(data):
        length, _ = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        spans.append((pos, end))
        pos = end
    return spans


class TestRoundTrip:
    def test_scan_returns_header_and_arrivals(self, tmp_path):
        path = write_log(tmp_path / "s.wal", tau=3)
        scanned = scan_wal(path)
        assert scanned["header"]["tau"] == 3
        assert scanned["header"]["config"]["semantics"] == "safe"
        assert scanned["brackets"] == BRACKETS
        assert scanned["salvage"] == {
            "records": len(BRACKETS),
            "good_bytes": path.stat().st_size,
            "torn_bytes": 0,
        }

    def test_empty_log_scans_clean(self, tmp_path):
        path = write_log(tmp_path / "s.wal", brackets=[])
        assert scan_wal(path)["brackets"] == []

    def test_reopen_continues_the_record_count(self, tmp_path):
        path = write_log(tmp_path / "s.wal")
        scanned = scan_wal(path)
        wal = StreamWAL.reopen(
            path, scanned["salvage"]["good_bytes"], scanned["salvage"]["records"]
        )
        wal.append("{z}")
        wal.close()
        assert scan_wal(path)["brackets"] == BRACKETS + ["{z}"]

    def test_invalid_fsync_policy(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="fsync"):
            StreamWAL.create(
                tmp_path / "s.wal", 1, PartSJConfig().resolved(), fsync="wrong"
            )


@contextlib.contextmanager
def no_leaked_handles():
    """Fail if a file object is collected unclosed inside the block."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


class TestBadPolicyLeavesTheLogAlone:
    """An unknown fsync policy raises before the log is opened, whichever
    entry point gets it: the existing log survives byte for byte (a torn
    tail included, which recovery would otherwise cut) and no handle is
    left open."""

    @pytest.fixture
    def log(self, tmp_path):
        path = write_log(tmp_path / "s.wal")
        path.write_bytes(path.read_bytes() + b"\x05\x00")  # a torn tail
        return path

    def test_fresh_engine(self, log):
        before = log.read_bytes()
        with no_leaked_handles():
            with pytest.raises(InvalidParameterError, match="fsync"):
                StreamingJoin(1, wal=str(log), wal_fsync="typo")
        assert log.read_bytes() == before

    def test_create(self, log):
        before = log.read_bytes()
        with no_leaked_handles():
            with pytest.raises(InvalidParameterError, match="fsync"):
                StreamWAL.create(log, 1, PartSJConfig().resolved(),
                                 fsync="typo")
        assert log.read_bytes() == before

    def test_reopen(self, log):
        before = log.read_bytes()
        salvage = scan_wal(log)["salvage"]
        with no_leaked_handles():
            with pytest.raises(InvalidParameterError, match="fsync"):
                StreamWAL.reopen(log, salvage["good_bytes"],
                                 salvage["records"], fsync="typo")
        assert log.read_bytes() == before

    def test_recover(self, log):
        before = log.read_bytes()
        with no_leaked_handles():
            with pytest.raises(InvalidParameterError, match="fsync"):
                StreamingJoin.recover(log, fsync="typo")
        assert log.read_bytes() == before
        recovered = StreamingJoin.recover(log, resume=False)
        assert len(recovered.trees) == len(BRACKETS)
        # The policy is checked before the log is even read.
        with pytest.raises(InvalidParameterError, match="fsync"):
            StreamingJoin.recover(log.with_name("absent.wal"), fsync="typo")


class TestTornTail:
    @pytest.mark.parametrize("keep", [1, 4, 7, 11])
    def test_partial_final_frame_is_dropped(self, tmp_path, keep):
        # Crash mid-append: cut the final record `keep` bytes in (inside
        # the frame header and inside the payload).
        path = write_log(tmp_path / "s.wal")
        start, end = record_spans(path)[-1]
        data = path.read_bytes()
        assert start + keep < end
        path.write_bytes(data[:start + keep])
        scanned = scan_wal(path)
        assert scanned["brackets"] == BRACKETS[:-1]
        assert scanned["salvage"] == {
            "records": len(BRACKETS) - 1,
            "good_bytes": start,
            "torn_bytes": keep,
        }

    def test_corrupt_final_record_is_a_torn_tail(self, tmp_path):
        # A CRC failure on the last complete record with nothing after it
        # can only be a torn in-place overwrite; it is dropped, not fatal.
        path = write_log(tmp_path / "s.wal")
        start, end = record_spans(path)[-1]
        data = bytearray(path.read_bytes())
        data[end - 1] ^= 0xFF
        path.write_bytes(bytes(data))
        scanned = scan_wal(path)
        assert scanned["brackets"] == BRACKETS[:-1]
        assert scanned["salvage"]["good_bytes"] == start
        assert scanned["salvage"]["torn_bytes"] == end - start

    def test_reopen_truncates_the_torn_tail(self, tmp_path):
        path = write_log(tmp_path / "s.wal")
        start, _ = record_spans(path)[-1]
        path.write_bytes(path.read_bytes()[:start + 3])
        scanned = scan_wal(path)
        wal = StreamWAL.reopen(
            path, scanned["salvage"]["good_bytes"], scanned["salvage"]["records"]
        )
        wal.append("{fresh}")
        wal.close()
        assert scan_wal(path)["brackets"] == BRACKETS[:-1] + ["{fresh}"]


class TestMidLogCorruption:
    def test_flip_in_an_interior_record_refuses_to_replay(self, tmp_path):
        path = write_log(tmp_path / "s.wal")
        spans = record_spans(path)
        start, end = spans[2]  # second arrival — valid records follow
        data = bytearray(path.read_bytes())
        data[(start + end) // 2 + _FRAME.size // 2] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptError, match="refusing to replay") as info:
            scan_wal(path)
        assert info.value.salvaged_records == 1  # arrivals before the hole
        assert info.value.good_bytes == start
        assert info.value.offset == start

    def test_corrupt_record_followed_by_torn_bytes_is_still_fatal(self, tmp_path):
        # Damage at rest *plus* a torn tail: the corrupt record is not the
        # final complete one once the tail is considered, so it's a hole.
        path = write_log(tmp_path / "s.wal")
        spans = record_spans(path)
        start, end = spans[-1]
        data = bytearray(path.read_bytes()[:end - 2])  # tear the last record
        prev_start, prev_end = spans[-2]
        data[prev_end - 1] ^= 0xFF  # and corrupt the one before it
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptError):
            scan_wal(path)

    def test_corrupt_header_is_fatal(self, tmp_path):
        path = write_log(tmp_path / "s.wal")
        start, end = record_spans(path)[0]
        data = bytearray(path.read_bytes())
        data[end - 1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptError):
            scan_wal(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.wal"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        with pytest.raises(SnapshotFormatError, match="magic"):
            scan_wal(path)

    def test_unsupported_header_version(self, tmp_path):
        path = write_log(tmp_path / "s.wal")
        data = path.read_bytes()
        start, end = record_spans(path)[0]
        payload = bytearray(data[start + _FRAME.size:end])
        patched = payload.replace(b'"format": 1', b'"format": 9')
        frame = _FRAME.pack(len(patched), zlib.crc32(bytes(patched)) & 0xFFFFFFFF)
        path.write_bytes(data[:start] + frame + bytes(patched) + data[end:])
        with pytest.raises(SnapshotFormatError, match="version"):
            scan_wal(path)


def pair_keys(pairs):
    return [(p.i, p.j, p.distance) for p in pairs]


class TestEngineRecovery:
    @pytest.fixture
    def forest(self, rng):
        return make_cluster_forest(
            rng, clusters=3, cluster_size=4, base_size=9, max_edits=3
        )

    def test_recover_matches_batch_over_the_logged_prefix(self, tmp_path, forest):
        path = tmp_path / "s.wal"
        with StreamingJoin(2, wal=str(path)) as engine:
            for tree in forest:
                engine.add(tree)
            engine.flush()
            expected = pair_keys(engine.results())

        recovered = StreamingJoin.recover(path)
        try:
            assert pair_keys(recovered.results()) == expected
            info = recovered.stats().extra["wal"]["recovered"]
            assert info["records"] == len(forest)
            assert info["torn_bytes"] == 0
        finally:
            recovered.close()

    def test_recover_from_torn_tail_then_continue(self, tmp_path, forest):
        # The engine crashed mid-append of the final arrival: recovery must
        # land exactly on the state of the logged prefix, then keep going
        # to the same final state as an uninterrupted run.
        path = tmp_path / "s.wal"
        with StreamingJoin(2, wal=str(path), wal_fsync="always") as engine:
            for tree in forest:
                engine.add(tree)
            engine.flush()
            full = pair_keys(engine.results())
        with StreamingJoin(2) as batch:
            batch.add_many(forest[:-1])
            batch.flush()
            prefix = pair_keys(batch.results())

        spans = record_spans(path)
        path.write_bytes(path.read_bytes()[:spans[-1][0] + 5])

        recovered = StreamingJoin.recover(path)
        try:
            assert pair_keys(recovered.results()) == prefix
            assert recovered.stats().extra["wal"]["recovered"]["torn_bytes"] == 5
            # resume=True reattached the log: re-ingest the lost arrival.
            recovered.add(forest[-1])
            recovered.flush()
            assert pair_keys(recovered.results()) == full
        finally:
            recovered.close()
        assert scan_wal(path)["salvage"]["records"] == len(forest)

    def test_recover_uses_the_logged_config(self, tmp_path, forest):
        path = tmp_path / "s.wal"
        config = PartSJConfig(semantics="paper", seed=7)
        with StreamingJoin(1, config=config, wal=str(path)) as engine:
            engine.add_many(forest[:4])
        recovered = StreamingJoin.recover(path)
        try:
            assert recovered.tau == 1
            assert recovered.config.semantics.value == "paper"
            assert recovered.config.seed == 7
        finally:
            recovered.close()

    def test_recover_refuses_a_mid_log_hole(self, tmp_path, forest):
        path = tmp_path / "s.wal"
        with StreamingJoin(1, wal=str(path)) as engine:
            engine.add_many(forest[:5])
        start, end = record_spans(path)[2]
        data = bytearray(path.read_bytes())
        data[end - 1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptError) as info:
            StreamingJoin.recover(path)
        assert info.value.salvaged_records == 1

    def test_wal_records_every_arrival_before_indexing(self, tmp_path, forest):
        path = tmp_path / "s.wal"
        with StreamingJoin(1, wal=str(path)) as engine:
            for position, tree in enumerate(forest[:3]):
                engine.add(tree)
                # Write-ahead: the log already holds this arrival.
                assert scan_wal(path)["brackets"][position] == to_bracket(tree)

    def test_stats_expose_wal_counters(self, tmp_path, forest):
        path = tmp_path / "s.wal"
        with StreamingJoin(1, wal=str(path), wal_fsync="always") as engine:
            engine.add_many(forest[:3])
            wal_stats = engine.stats().extra["wal"]
            assert wal_stats["records"] == 3
            assert wal_stats["synced_records"] == 3
            assert wal_stats["fsync"] == "always"

    def test_fresh_engine_truncates_an_existing_log(self, tmp_path, forest):
        path = write_log(tmp_path / "s.wal")
        with StreamingJoin(1, wal=str(path)) as engine:
            engine.add(forest[0])
        assert scan_wal(path)["brackets"] == [to_bracket(forest[0])]
