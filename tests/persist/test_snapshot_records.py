"""Records in session snapshots: their layout, the warm restore, and damage.

A snapshot stores every :class:`~repro.core.treecache.TreeCache` record
the session holds (the ``records`` section), and a warm load adopts them
instead of tokenizing each tree's text again.  What must hold:

1. A restored record equals the one built from its tree's text, array
   for array, for any tree: deep chains, wide fans, ``""``, unicode and
   escaped labels, one-node trees, label ids past 65,535.
2. A snapshot without ``records`` (as written before the section
   existed) loads and answers the same, building records from text.
3. Any damage to any section, with its CRC recomputed or not, raises a
   typed :class:`~repro.errors.PersistenceError` from ``load`` and
   falls back to a cold session through ``from_file``.
"""

import hashlib
import json
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.intern import LabelInterner
from repro.core.treecache import TreeCache, pack_records, unpack_records
from repro.datasets.io import save_trees
from repro.errors import PersistenceError, TreeFormatError
from repro.persist.container import read_container, write_container
from repro.persist.snapshot import sidecar_path
from repro.session import TreeCollection
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest
from tests.persist.test_container import frame_offsets
from tests.tree.test_text_trees import written_tree

ARRAYS = ("size", "labels", "left", "right", "parent", "general_post", "internal")
# The record header of the documented layout: u32 index, u32 n, u8 width.
HEAD = struct.Struct("<IIB")

ADVERSARIAL = {
    "deep chain": "{a" * 5000 + "}" * 5000,
    "wide fan": "{r" + "{x}" * 5000 + "}",
    "empty labels": "{{}{{}}}",
    "unicode": "{ünï{ç😀{中文}}{ }}",
    "escaped": r"{\{{\}}{\\{a b}}}",
    "one node": "{a}",
}


def assert_same_record(restored, built):
    for name in ARRAYS:
        assert getattr(restored, name) == getattr(built, name), name


def round_trip(records, interner, sizes):
    return list(unpack_records(b"".join(pack_records(records)), interner, sizes))


def filled_interner(count=70_000):
    """An interner whose next label id is past 65,535."""
    interner = LabelInterner()
    for k in range(count):
        interner.intern(f"filler-{k}")
    return interner


BIG = filled_interner()


class TestLayout:
    @pytest.mark.parametrize("text", ADVERSARIAL.values(), ids=ADVERSARIAL)
    def test_adversarial_shapes_round_trip(self, text):
        interner = LabelInterner()
        built = TreeCache(Tree.from_bracket(text), interner)
        [(index, restored)] = round_trip([(0, built)], interner, [built.size])
        assert index == 0
        assert_same_record(restored, built)
        assert restored.interner is interner

    @given(written_tree(), st.booleans())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_tree_round_trips(self, text, past_65535):
        interner = BIG if past_65535 else LabelInterner()
        built = TreeCache(Tree.from_bracket(text), interner)
        [(_, restored)] = round_trip([(3, built)], interner, [0, 0, 0, built.size])
        assert_same_record(restored, built)

    def test_each_record_takes_the_narrowest_width(self):
        interner = LabelInterner()
        small = TreeCache(Tree.from_bracket("{a{b}{c}}"), interner)
        wide = TreeCache(Tree.from_bracket("{r" + "{x}" * 300 + "}"), interner)
        for k in range(70_000):
            interner.intern(f"l{k}")
        fresh = TreeCache(Tree.from_bracket("{a{new}}"), interner)
        assert max(fresh.labels) > 0xFFFF
        chunks = list(pack_records([(0, small), (1, wide), (2, fresh)]))
        assert [len(chunk) for chunk in chunks] == [
            HEAD.size + 5 * 4 * 1, HEAD.size + 5 * 302 * 2,
            HEAD.size + 5 * 3 * 4,
        ]
        assert [HEAD.unpack_from(chunk)[2] for chunk in chunks] == [1, 2, 4]
        restored = round_trip(
            [(0, small), (1, wide), (2, fresh)], interner,
            [small.size, wide.size, fresh.size],
        )
        for (_, record), built in zip(restored, (small, wide, fresh)):
            assert_same_record(record, built)

    @pytest.mark.parametrize("fault", [
        "cut header", "cut arrays", "width 3", "unknown tree", "wrong size",
        "slot 0 set", "label id too large", "parent out of range",
        "child above its parent",
    ])
    def test_unfit_records_raise_typed(self, fault):
        interner = LabelInterner()
        record = TreeCache(Tree.from_bracket("{a{b{c}}{d}}"), interner)
        n = record.size
        arrays = {name: list(getattr(record, name))
                  for name in ("labels", "left", "right", "parent",
                               "general_post")}
        index, width = 0, 1
        if fault == "slot 0 set":
            arrays["general_post"][0] = 1
        elif fault == "label id too large":
            arrays["labels"][2] = len(interner)
        elif fault == "parent out of range":
            arrays["parent"][1] = n + 1
        elif fault == "child above its parent":
            arrays["left"][n] = n  # the root is its own left child
        elif fault == "unknown tree":
            index = 5
        elif fault == "width 3":
            width = 3
        values = [value for name in arrays for value in arrays[name]]
        size = n + 1 if fault == "wrong size" else n
        payload = HEAD.pack(index, size, width) + bytes(values)
        if fault == "cut header":
            payload += b"\x00" * 4
        elif fault == "cut arrays":
            payload = payload[:-1]
        with pytest.raises(TreeFormatError):
            list(unpack_records(payload, interner, [n]))


def records_digest(interner: bytes, records: bytes, texts) -> str:
    """The ``meta`` digest, from the spec in repro.persist.snapshot."""
    digest = hashlib.sha256(struct.pack("<Q", len(interner)) + interner)
    digest.update(struct.pack("<Q", len(records)) + records)
    for text in texts:
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def forest():
    rng = random.Random(0x5EED)
    return make_cluster_forest(
        rng, clusters=3, cluster_size=4, base_size=9, max_edits=3
    )


def triples(pairs):
    return [(p.i, p.j, p.distance) for p in pairs]


class TestRestore:
    def test_a_warm_load_reads_no_tree_text(self, forest, tmp_path,
                                            monkeypatch):
        col = TreeCollection.from_trees(forest)
        col.join(2).run()
        path = col.save(tmp_path / "s.snapshot")

        def no_text(self, text):
            raise AssertionError("a record was built from text")

        monkeypatch.setattr(TreeCache, "_read_text", no_text)
        loaded = TreeCollection.load(path)
        monkeypatch.undo()
        assert sorted(loaded._records) == sorted(col._records)
        assert loaded.provenance["restored_records"] == len(col._records)
        for i, record in loaded._records.items():
            assert_same_record(record, col._records[i])
            assert_same_record(
                record, TreeCache(loaded.trees[i], loaded.interner)
            )
        assert triples(loaded.join(2).run().pairs) == triples(
            col.join(2).run().pairs
        )

    def test_save_writes_only_the_records_the_session_built(self, tmp_path):
        texts = ("{a{b}{c}}", "{q}", "{a{b}}", "{x{y}{z{w}}}", "{a{b}{c{d}}}")
        col = TreeCollection.from_trees([Tree.from_bracket(t) for t in texts])
        col.prepare(1)  # the 1- and 2-node trees are not partitioned
        held = sorted(col._records)
        assert 1 not in held and 2 not in held
        labels = list(col.interner._labels)
        path = col.save(tmp_path / "s.snapshot")
        # Saving built no record, so it interned no label.
        assert sorted(col._records) == held
        assert col.interner._labels == labels
        loaded = TreeCollection.load(path)
        assert sorted(loaded._records) == held
        query = Tree.from_bracket("{q{r}}")
        assert [(h.index, h.distance) for h in loaded.search(query, 1).run()] \
            == [(h.index, h.distance) for h in col.search(query, 1).run()]
        assert triples(loaded.join(1).run().pairs) == triples(
            col.join(1).run().pairs
        )

    def test_a_snapshot_without_records_answers_the_same(self, forest,
                                                          tmp_path):
        col = TreeCollection.from_trees(forest)
        for tau in (1, 2):
            col.join(tau).run()
        path = col.save(tmp_path / "s.snapshot")
        version, sections = read_container(path)
        meta = json.loads(bytes(sections["meta"]))
        del meta["records_sha256"]
        older = [
            (name, json.dumps(meta).encode() if name == "meta" else payload)
            for name, payload in sections.items() if name != "records"
        ]
        write_container(path, older, library_version=version)

        loaded = TreeCollection.load(path)
        assert loaded.provenance["restored_records"] == 0
        assert loaded.prepared_taus() == [1, 2]
        for tau in (1, 2):
            for method in ("partsj", "str", "nested_loop"):
                assert triples(loaded.join(tau, method=method).run().pairs) \
                    == triples(col.join(tau, method=method).run().pairs)
            for query in forest[:3]:
                assert [(h.index, h.distance)
                        for h in loaded.search(query, tau).run()] == [
                    (h.index, h.distance) for h in col.search(query, tau).run()
                ]


# -- damage: every section, CRC recomputed or not ------------------------------


def prep_header_edit(change):
    def edit(sections, texts):
        payload = sections["prep:0"]
        (head_len,) = struct.unpack_from("<I", payload, 0)
        header = json.loads(payload[4:4 + head_len])
        change(header)
        head = json.dumps(header).encode()
        sections["prep:0"] = (
            struct.pack("<I", len(head)) + head + payload[4 + head_len:]
        )
    return edit


def replace(name, payload):
    def edit(sections, texts):
        sections[name] = payload
    return edit


def forged_records(change):
    """Edit the first record's arrays and re-sign ``meta`` to match, as
    a consistent edit of two sections would."""
    def edit(sections, texts):
        payload = bytearray(sections["records"])
        index, n, width = HEAD.unpack_from(payload, 0)
        assert width == 1
        count = n + 1
        change(payload, HEAD.size, count)
        sections["records"] = bytes(payload)
        meta = json.loads(sections["meta"])
        meta["records_sha256"] = records_digest(
            sections["interner"], sections["records"], texts
        )
        sections["meta"] = json.dumps(meta).encode()
    return edit


def _set(array_number, slot, value):
    def change(payload, start, count):
        payload[start + array_number * count + slot] = value
    return change


DAMAGE = {
    **{
        f"{name}: {kind}": replace(name, blob)
        for name in ("meta", "source", "interner", "order", "prep:0",
                     "records", "trees")
        for kind, blob in (("not json", b"{oops"), ("not utf-8", b"\xff\xfe{"),
                           ("empty", b""))
    },
    "meta: a list": replace("meta", b"[]"),
    "meta: string count": replace("meta", b'{"trees": "12"}'),
    "source: a list": replace("source", b"[]"),
    "source: no digest": replace("source", b"{}"),
    "interner: an object": replace("interner", b"{}"),
    "interner: numbers": replace("interner", b"[1, 2]"),
    "interner: a label twice": replace("interner", b'["a", "a"]'),
    "order: an object": replace("order", b"{}"),
    "order: string ids": replace("order", b'["0"]'),
    "order: empty": replace("order", b"[]"),
    "order: nested too deep": replace("order", b"[" * 100_000 + b"]" * 100_000),
    "trees: not bracket text": replace("trees", b"{oops"),
    "trees: other trees": replace("trees", b"{a}\n{b}"),
    "prep:0: no tau": prep_header_edit(lambda h: h.pop("tau")),
    "prep:0: negative tau": prep_header_edit(lambda h: h.update(tau=-1)),
    "prep:0: bogus semantics": prep_header_edit(
        lambda h: h["config"].update(semantics="bogus")),
    "prep:0: unknown config field": prep_header_edit(
        lambda h: h["config"].update(colour="red")),
    "prep:0: string tree ids": prep_header_edit(
        lambda h: h.update(order=[str(i) for i in h["order"]])),
    "prep:0: string small ids": prep_header_edit(
        lambda h: h.update(small=["0"])),
    "prep:0: string gammas": prep_header_edit(
        lambda h: h.update(gammas=[str(g) for g in h["gammas"]])),
    "records: one byte flipped": lambda s, _: s.update(
        records=s["records"][:20] + bytes([s["records"][20] ^ 1])
        + s["records"][21:]),
    "records: one byte short": lambda s, _: s.update(records=s["records"][:-1]),
    "records: every record twice": lambda s, _: s.update(
        records=s["records"] + s["records"]),
    "records, re-signed: slot 0 set": forged_records(_set(4, 0, 1)),
    "records, re-signed: label id too large": forged_records(
        _set(0, 1, 250)),
    "records, re-signed: parent out of range": forged_records(
        _set(3, 1, 255)),
    "records, re-signed: child above its parent": forged_records(
        lambda payload, start, count: payload.__setitem__(
            start + count + count - 1, count - 1)),
    "records, re-signed: a record twice": forged_records(
        lambda payload, start, count: payload.extend(
            payload[:HEAD.size + 5 * count])),
    "records, re-signed: cut off": forged_records(
        lambda payload, start, count: payload.__delitem__(-1)),
}


def doctor(path, edit, trees):
    """Apply ``edit`` to ``path``'s sections (given the texts of the
    ``trees`` they describe) and rewrite every CRC."""
    version, views = read_container(path)
    sections = {name: bytes(view) for name, view in views.items()}
    names = list(sections)
    edit(sections, [tree.to_bracket() for tree in trees])
    write_container(
        path, [(name, sections[name]) for name in names],
        library_version=version,
    )


class TestDamage:
    @pytest.fixture(scope="class")
    def saved(self, forest, tmp_path_factory):
        """A dataset file, its cold join, a sidecar and an embedded snapshot."""
        base = tmp_path_factory.mktemp("damage")
        dataset = base / "forest.trees"
        save_trees(forest, dataset)
        col = TreeCollection.from_file(dataset, sidecar=None)
        expected = triples(col.join(2).run().pairs)
        sidecar = sidecar_path(dataset)
        col.save(sidecar, include_trees=False, source=dataset)
        embedded = col.save(base / "embedded.snapshot", source=dataset)
        return {
            "dataset": dataset, "trees": col.trees, "expected": expected,
            "sidecar": sidecar.read_bytes(), "embedded": embedded.read_bytes(),
        }

    @pytest.mark.parametrize("case", list(DAMAGE))
    def test_load_raises_typed(self, saved, tmp_path, case):
        path = tmp_path / "s.snapshot"
        path.write_bytes(saved["embedded"])
        doctor(path, DAMAGE[case], saved["trees"])
        with pytest.raises(PersistenceError):
            TreeCollection.load(path)

    @pytest.mark.parametrize(
        "case", [case for case in DAMAGE if not case.startswith("trees")]
    )
    def test_from_file_falls_back_cold(self, saved, tmp_path, case):
        dataset = tmp_path / "forest.trees"
        dataset.write_bytes(saved["dataset"].read_bytes())
        sidecar_path(dataset).write_bytes(saved["sidecar"])
        doctor(sidecar_path(dataset), DAMAGE[case], saved["trees"])
        with pytest.warns(UserWarning, match="rebuilding the session cold"):
            col = TreeCollection.from_file(dataset)
        assert col.provenance is None
        assert triples(col.join(2).run().pairs) == saved["expected"]

    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    @pytest.mark.parametrize("name", ["records", "trees"])
    def test_raw_damage_to_records_and_trees(self, saved, tmp_path, name, mode):
        # Damage the CRC sees: a flipped byte, or the file cut inside the
        # section.  Both raise from load; through from_file (a sidecar
        # saved with its trees) both fall back cold.
        dataset = tmp_path / "forest.trees"
        dataset.write_bytes(saved["dataset"].read_bytes())
        col = TreeCollection.from_file(dataset, sidecar=None)
        col.prepare(2)
        path = col.save(sidecar_path(dataset), source=dataset)
        pristine = path.read_bytes()
        _, start, end = next(
            frame for frame in frame_offsets(pristine) if frame[0] == name
        )
        if mode == "flip":
            damaged = bytearray(pristine)
            damaged[(start + end) // 2] ^= 0x10
        else:
            damaged = pristine[:end - 1]
        path.write_bytes(bytes(damaged))
        with pytest.raises(PersistenceError):
            TreeCollection.load(path)
        with pytest.warns(UserWarning, match="rebuilding the session cold"):
            cold = TreeCollection.from_file(dataset)
        assert cold.provenance is None
        assert triples(cold.join(2).run().pairs) == saved["expected"]

    @pytest.mark.parametrize("case", [
        case for case in DAMAGE if case.startswith("trees")
    ])
    def test_from_file_reads_trees_from_the_dataset(self, saved, tmp_path,
                                                    case):
        # A sidecar saved with its trees: from_file passes the dataset's
        # trees, so a consistent edit of the embedded copy is never read.
        dataset = tmp_path / "forest.trees"
        dataset.write_bytes(saved["dataset"].read_bytes())
        col = TreeCollection.from_file(dataset, sidecar=None)
        col.prepare(2)
        col.save(sidecar_path(dataset), source=dataset)
        doctor(sidecar_path(dataset), DAMAGE[case], saved["trees"])
        warm = TreeCollection.from_file(dataset)
        assert warm.provenance is not None
        assert triples(warm.join(2).run().pairs) == saved["expected"]

    def test_records_over_other_trees_are_refused(self, saved, tmp_path):
        # A sidecar passed trees it was not saved for, of the same sizes
        # and order: the digest, not the sizes, catches it.
        path = tmp_path / "s.snapshot"
        path.write_bytes(saved["embedded"])
        renamed = [
            Tree.from_bracket(tree.to_bracket().replace("{a", "{z"))
            for tree in saved["trees"]
        ]
        with pytest.raises(PersistenceError, match="records"):
            TreeCollection.load(path, trees=renamed)

    def test_the_digest_matches_its_spec(self, saved, tmp_path):
        path = tmp_path / "s.snapshot"
        path.write_bytes(saved["embedded"])
        _, sections = read_container(path)
        meta = json.loads(bytes(sections["meta"]))
        texts = [tree.to_bracket() for tree in saved["trees"]]
        assert meta["records_sha256"] == records_digest(
            bytes(sections["interner"]), bytes(sections["records"]), texts
        )
