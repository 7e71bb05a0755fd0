"""Session snapshots (repro.persist.snapshot): round trips and damage.

Two properties carry the feature:

1. **Bit-identical round trips** — a loaded session answers every query
   (all join methods, searches, streams, across taus and worker counts)
   exactly like the session that was saved.
2. **Never a wrong answer from damage** — every corrupted, truncated,
   version-mismatched or stale snapshot either raises a typed
   :class:`~repro.errors.PersistenceError` (explicit ``load``) or warns
   and rebuilds cold (implicit ``from_file`` sidecar), with results
   identical to a cold session in every fallback.
"""

import json
import random
import struct

import pytest

from repro.core.join import PartSJConfig
from repro.datasets.io import save_trees
from repro.errors import (
    PersistenceError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    StaleSnapshotError,
)
from repro.persist.container import (
    FORMAT_VERSION,
    MAGIC,
    read_container,
    write_container,
)
from repro.persist.snapshot import (
    load_collection,
    sidecar_path,
    source_fingerprint,
)
from repro.session import TreeCollection
from tests.conftest import make_cluster_forest
from tests.persist.test_container import frame_offsets

TAUS = (1, 2, 3)
METHODS = ("partsj", "str", "set", "histogram", "nested_loop")
WORKERS = (1, 2)


def triples(pairs):
    return [(p.i, p.j, p.distance) for p in pairs]


@pytest.fixture(scope="module")
def forest():
    rng = random.Random(0xC0FFEE)
    return make_cluster_forest(
        rng, clusters=3, cluster_size=4, base_size=9, max_edits=3
    )


@pytest.fixture(scope="module")
def saved(forest, tmp_path_factory):
    """A session with every matrix tau prepared, snapshotted once."""
    col = TreeCollection.from_trees(forest)
    for tau in TAUS:
        col.prepare(tau)
        col.search(forest[0], tau).run()  # search index rides along
    path = tmp_path_factory.mktemp("snap") / "session.snapshot"
    col.save(path)
    return col, path


class TestRoundTripMatrix:
    def test_joins_bit_identical_across_the_matrix(self, saved):
        # taus {1,2,3} x five methods x workers {1,2}: the loaded session
        # returns byte-for-byte the pairs of the one that was saved.
        col, path = saved
        loaded = TreeCollection.load(path)
        for tau in TAUS:
            for method in METHODS:
                for workers in WORKERS:
                    expected = col.join(tau, method=method, workers=workers)
                    actual = loaded.join(tau, method=method, workers=workers)
                    assert triples(actual.run().pairs) == triples(
                        expected.run().pairs
                    ), (tau, method, workers)

    def test_searches_bit_identical(self, saved, forest):
        col, path = saved
        loaded = TreeCollection.load(path)
        for tau in TAUS:
            for query in forest[:4]:
                expected = col.search(query, tau).run()
                actual = loaded.search(query, tau).run()
                assert [(h.index, h.distance) for h in actual] == [
                    (h.index, h.distance) for h in expected
                ]

    def test_streams_bit_identical(self, saved):
        col, path = saved
        loaded = TreeCollection.load(path)
        assert triples(loaded.stream(2).run()) == triples(col.stream(2).run())

    def test_prepared_taus_and_config_survive(self, saved):
        col, path = saved
        loaded = TreeCollection.load(path)
        assert loaded.prepared_taus() == col.prepared_taus()
        # No re-partitioning happened to answer from the warm state.
        assert loaded.join(2).explain()["prepared"] is True

    def test_non_default_config_preparation_survives(self, forest, tmp_path):
        col = TreeCollection.from_trees(forest)
        config = PartSJConfig(semantics="paper", partition_strategy="random",
                              seed=11)
        expected = triples(col.join(2, config=config).run().pairs)
        path = tmp_path / "cfg.snapshot"
        col.save(path)
        loaded = TreeCollection.load(path)
        plan = loaded.join(2, config=config)
        assert plan.explain()["prepared"] is True  # the keyed prep restored
        assert triples(plan.run().pairs) == expected

    def test_provenance_and_stats(self, saved):
        col, path = saved
        loaded = TreeCollection.load(path)
        assert col.provenance is None
        assert loaded.provenance["path"] == str(path)
        assert sorted(loaded.provenance["restored_taus"]) == list(TAUS)
        assert loaded.stats()["snapshot"]["trees_embedded"] is True


class TestReproducibleBytes:
    def test_two_sessions_of_the_same_trees_save_identical_files(
        self, forest, tmp_path
    ):
        # No measured time is persisted, so two independent preparations
        # of the same trees write the same bytes.
        paths = []
        for k in range(2):
            col = TreeCollection.from_trees(forest)
            for tau in (1, 2):
                col.prepare(tau)
            path = tmp_path / f"session-{k}.snapshot"
            col.save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_a_stored_build_time_is_ignored(self, forest, tmp_path):
        # A header written while the field was still persisted loads, and
        # the restored preparation reports its own load time instead.
        col = TreeCollection.from_trees(forest)
        col.prepare(2)
        path = tmp_path / "stored-time.snapshot"
        col.save(path)
        version, sections = read_container(path)
        name = next(name for name in sections if name.startswith("prep:"))
        payload = sections[name]
        (head_len,) = struct.unpack_from("<I", payload, 0)
        header = json.loads(bytes(payload[4:4 + head_len]))
        assert "build_time" not in header
        header["build_time"] = 1234.5
        head = json.dumps(header, sort_keys=True, separators=(",", ":"))
        sections[name] = (
            struct.pack("<I", len(head)) + head.encode() + payload[4 + head_len:]
        )
        write_container(path, list(sections.items()), library_version=version)
        loaded = TreeCollection.load(path)
        assert loaded.is_prepared(2, PartSJConfig())
        assert 0 <= loaded.prepare(2).build_time < 1234.5
        assert triples(loaded.join(2).run().pairs) == triples(
            col.join(2).run().pairs
        )


class TestSidecar:
    @pytest.fixture
    def dataset(self, forest, tmp_path):
        path = tmp_path / "forest.trees"
        save_trees(forest, path)
        return path

    def warm_sidecar(self, dataset):
        col = TreeCollection.from_file(dataset, sidecar=None)
        col.join(2).run()
        col.save(sidecar_path(dataset), include_trees=False, source=dataset)
        return col

    def test_auto_discovery_restores_the_preparation(self, dataset):
        col = self.warm_sidecar(dataset)
        loaded = TreeCollection.from_file(dataset)
        assert loaded.prepared_taus() == [2]
        assert loaded.provenance is not None
        assert triples(loaded.join(2).run().pairs) == triples(
            col.join(2).run().pairs
        )

    def test_sidecar_none_disables_discovery(self, dataset):
        self.warm_sidecar(dataset)
        cold = TreeCollection.from_file(dataset, sidecar=None)
        assert cold.prepared_taus() == []
        assert cold.provenance is None

    def test_stale_sidecar_warns_and_rebuilds(self, dataset, forest):
        self.warm_sidecar(dataset)
        save_trees(forest[:-1], dataset)  # the dataset moved on
        with pytest.warns(UserWarning, match="rebuilding the session cold"):
            col = TreeCollection.from_file(dataset)
        assert col.prepared_taus() == []
        assert len(col) == len(forest) - 1  # the *current* dataset, always

    def test_stale_sidecar_raises_on_explicit_load(self, dataset, forest):
        self.warm_sidecar(dataset)
        save_trees(forest[:-1], dataset)
        with pytest.raises(StaleSnapshotError):
            load_collection(sidecar_path(dataset), expected_source=dataset)

    def test_sidecar_without_trees_needs_its_dataset(self, dataset):
        self.warm_sidecar(dataset)
        with pytest.raises(PersistenceError):
            TreeCollection.load(sidecar_path(dataset))  # no trees anywhere

    def test_source_fingerprint_tracks_content(self, dataset):
        before = source_fingerprint(dataset)
        dataset.write_bytes(dataset.read_bytes() + b"# comment\n")
        after = source_fingerprint(dataset)
        assert before["sha256"] != after["sha256"]
        assert before["name"] == after["name"]


class TestCorruptionMatrix:
    """Bit flips in every section, cuts at every boundary, bad versions."""

    @pytest.fixture
    def snapshot(self, forest, tmp_path):
        col = TreeCollection.from_trees(forest)
        col.join(1).run()
        col.join(2).run()
        path = tmp_path / "m.snapshot"
        col.save(path)
        return col, path

    def test_bit_flip_in_every_section_raises_typed(self, snapshot):
        col, path = snapshot
        pristine = path.read_bytes()
        sections = frame_offsets(pristine)
        assert [name for name, _, _ in sections] == [
            "meta", "trees", "interner", "order", "prep:0", "prep:1",
            "records",
        ]
        for name, start, end in sections:
            for probe in (start, (start + end) // 2, end - 1):
                damaged = bytearray(pristine)
                damaged[probe] ^= 0x40
                path.write_bytes(bytes(damaged))
                with pytest.raises(SnapshotIntegrityError):
                    TreeCollection.load(path)

    def test_truncation_at_every_boundary_raises_typed(self, snapshot):
        col, path = snapshot
        pristine = path.read_bytes()
        for _, start, end in frame_offsets(pristine):
            for cut in (start - 4, start, end - 1):
                path.write_bytes(pristine[:cut])
                with pytest.raises(SnapshotFormatError):
                    TreeCollection.load(path)

    def test_version_mismatch_raises_typed(self, snapshot):
        col, path = snapshot
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(MAGIC), FORMAT_VERSION + 7)
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="version"):
            TreeCollection.load(path)

    def test_every_damage_mode_falls_back_cold_via_from_file(
        self, forest, tmp_path
    ):
        # The implicit path: same damage catalogue, but through the
        # dataset+sidecar route — each case must warn, rebuild cold, and
        # answer identically to a never-snapshotted session.
        dataset = tmp_path / "forest.trees"
        save_trees(forest, dataset)
        col = TreeCollection.from_file(dataset, sidecar=None)
        expected = triples(col.join(2).run().pairs)
        col.save(sidecar_path(dataset), include_trees=False, source=dataset)
        pristine = sidecar_path(dataset).read_bytes()

        damages = {"flip": None, "truncate": None, "version": None,
                   "garbage": None}
        _, start, end = frame_offsets(pristine)[2]
        flipped = bytearray(pristine)
        flipped[(start + end) // 2] ^= 0x02
        damages["flip"] = bytes(flipped)
        damages["truncate"] = pristine[:end - 2]
        versioned = bytearray(pristine)
        struct.pack_into("<I", versioned, len(MAGIC), 99)
        damages["version"] = bytes(versioned)
        damages["garbage"] = b"\x00" * 64

        for mode, blob in damages.items():
            sidecar_path(dataset).write_bytes(blob)
            with pytest.warns(UserWarning, match="rebuilding the session cold"):
                rebuilt = TreeCollection.from_file(dataset)
            assert rebuilt.provenance is None, mode
            assert triples(rebuilt.join(2).run().pairs) == expected, mode

    def test_doctored_payload_with_recomputed_crc_is_still_caught(
        self, snapshot
    ):
        # Defense in depth: even a *checksum-consistent* edit (an attacker
        # or cosmic-ray-with-luck scenario the CRC cannot see) trips the
        # load-time recomputation checks instead of answering wrongly.
        col, path = snapshot
        import zlib

        pristine = path.read_bytes()
        name, start, end = frame_offsets(pristine)[1]  # trees section
        assert name == "trees"
        payload = bytearray(pristine[start:end])
        brace = payload.index(ord("{"), 1)
        payload[brace - 1:brace] = b""  # drop a byte: tree list shifts
        doctored = bytearray(pristine[:start]) + payload + bytearray(
            pristine[end:]
        )
        struct.pack_into("<Q", doctored, start - 12, len(payload))
        struct.pack_into(
            "<I", doctored, start - 4, zlib.crc32(bytes(payload)) & 0xFFFFFFFF
        )
        path.write_bytes(bytes(doctored))
        with pytest.raises(PersistenceError):
            TreeCollection.load(path)
