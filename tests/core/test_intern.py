"""Tests for label interning and packed twig keys (repro.core.intern)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intern import (
    DEFAULT_INTERNER,
    EPSILON,
    EPSILON_ID,
    MAX_LABEL_ID,
    LabelInterner,
    grandchild_bits,
    pack_twig,
    shape_of,
    subgraph_bits,
    unpack_grandchildren,
    unpack_twig,
)
from repro.core.treecache import TreeCache
from repro.tree.node import Tree


class TestLabelInterner:
    def test_epsilon_is_id_zero(self):
        interner = LabelInterner()
        assert interner.intern(EPSILON) == EPSILON_ID
        assert interner.label(EPSILON_ID) == EPSILON
        assert len(interner) == 1

    def test_ids_are_dense_and_stable(self):
        interner = LabelInterner()
        a = interner.intern("a")
        b = interner.intern("b")
        assert (a, b) == (1, 2)
        assert interner.intern("a") == a  # idempotent
        assert len(interner) == 3  # epsilon + a + b

    def test_round_trip(self):
        interner = LabelInterner()
        for label in ("x", "y", "a longer label", "ümlaut", ""):
            assert interner.label(interner.intern(label)) == label

    def test_get_does_not_intern(self):
        interner = LabelInterner()
        assert interner.get("unseen") is None
        assert len(interner) == 1
        interner.intern("seen")
        assert interner.get("seen") == 1

    def test_contains(self):
        interner = LabelInterner()
        interner.intern("here")
        assert "here" in interner
        assert "gone" not in interner
        assert EPSILON in interner

    def test_default_interner_is_shared_by_caches(self):
        # Two independently built caches must agree on ids, otherwise
        # cross-tree twig comparisons would be meaningless.
        a = TreeCache(Tree.from_bracket("{q7{q8}}"))
        b = TreeCache(Tree.from_bracket("{q8{q7}}"))
        assert a.interner is b.interner is DEFAULT_INTERNER
        assert a.labels[a.size] == b.labels[1]  # both are "q7"

    def test_explicit_interner(self):
        interner = LabelInterner()
        cache = TreeCache(Tree.from_bracket("{a{b}}"), interner=interner)
        assert cache.interner is interner
        assert interner.get("a") is not None


class TestPackedTwigKeys:
    @given(
        st.integers(min_value=0, max_value=MAX_LABEL_ID),
        st.integers(min_value=0, max_value=MAX_LABEL_ID),
        st.integers(min_value=0, max_value=MAX_LABEL_ID),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, label, left, right):
        assert unpack_twig(pack_twig(label, left, right)) == (label, left, right)

    @given(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_LABEL_ID),
            st.integers(min_value=0, max_value=MAX_LABEL_ID),
            st.integers(min_value=0, max_value=MAX_LABEL_ID),
        ),
        st.tuples(
            st.integers(min_value=0, max_value=MAX_LABEL_ID),
            st.integers(min_value=0, max_value=MAX_LABEL_ID),
            st.integers(min_value=0, max_value=MAX_LABEL_ID),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_injective(self, twig_a, twig_b):
        if twig_a != twig_b:
            assert pack_twig(*twig_a) != pack_twig(*twig_b)

    def test_epsilon_components_pack_as_zero_bits(self):
        assert pack_twig(0, 0, 0) == 0
        key = pack_twig(5, 0, 0)
        assert unpack_twig(key) == (5, 0, 0)
        assert key == 5 << 42

    def test_key_matches_subgraph_twig(self):
        from repro.core.partition import extract_partition

        cache = TreeCache(Tree.from_bracket("{a{b}{c{d}{e}}{f}}"))
        for sub in extract_partition(cache, 0, 3):
            assert unpack_twig(sub.twig_key) == sub.twig_ids
            label = cache.interner.label
            assert sub.twig == tuple(label(i) for i in sub.twig_ids)

    def test_interner_overflow_guard(self):
        from repro.errors import InvalidParameterError

        interner = LabelInterner()
        interner._labels = [EPSILON] * (MAX_LABEL_ID + 1)  # simulate fullness
        with pytest.raises(InvalidParameterError, match="overflow"):
            interner.intern("one-too-many")


class TestDepthTwoKeys:
    # Binary postorder arrays of a node 7 whose left child 3 has children
    # 1 and 2 and whose right child 6 has children 4 and 5: all four
    # grandchild slots are present.
    LEFT = [0, 0, 0, 1, 0, 0, 4, 3]
    RIGHT = [0, 0, 0, 2, 0, 0, 5, 6]

    def test_max_label_id_in_every_grandchild_slot(self):
        # A slot holds id + 1, which for MAX_LABEL_ID needs the 22nd bit.
        labels = [0] + [MAX_LABEL_ID] * 7
        bits = grandchild_bits(labels, self.LEFT, self.RIGHT, 7)
        assert unpack_grandchildren(bits) == (MAX_LABEL_ID,) * 4
        twig = pack_twig(MAX_LABEL_ID, MAX_LABEL_ID, MAX_LABEL_ID)
        assert twig & bits == 0
        key = twig | bits
        shape_bits, mask = shape_of(key)
        assert twig | shape_bits | (bits & mask) == key
        assert mask & (twig | shape_bits) == 0

    def test_empty_label_is_not_a_missing_grandchild(self):
        labels = [0] * 8  # every node labelled "" (epsilon's id 0)
        bits = grandchild_bits(labels, self.LEFT, self.RIGHT, 7)
        assert unpack_grandchildren(bits) == (EPSILON_ID,) * 4
        member = bytearray([0, 1, 0, 1, 0, 1, 1, 1])  # drop nodes 2 and 4
        assert unpack_grandchildren(
            subgraph_bits(labels, self.LEFT, self.RIGHT, 7, member)[0]
        ) == (EPSILON_ID, None, None, EPSILON_ID)
        assert unpack_grandchildren(
            grandchild_bits(labels, self.LEFT, self.RIGHT, 3)
        ) == (None,) * 4


class TestStreamingInternerGrowth:
    """Interner growth during streaming must never invalidate filed keys.

    The streaming engine interns labels of every arriving tree into the
    same table whose earlier ids are already baked into packed twig keys
    sitting in the two-layer index.
    Safety rests on one invariant — new labels only *append* ids — which
    these tests lock down, end to end.
    """

    def test_ids_are_append_only_under_interleaved_growth(self):
        interner = LabelInterner()
        snapshots = {}
        for wave in range(5):
            for k in range(4):
                label = f"wave{wave}-{k}"
                snapshots[label] = interner.intern(label)
            # Every id handed out in ANY earlier wave is still the same.
            for label, lid in snapshots.items():
                assert interner.intern(label) == lid
                assert interner.get(label) == lid
                assert interner.label(lid) == label

    def test_packed_keys_survive_label_growth(self):
        interner = LabelInterner()
        a, b, c = (interner.intern(x) for x in "abc")
        key = pack_twig(a, b, c)
        for k in range(100):
            interner.intern(f"late-{k}")
        # The packed key still unpacks to the same twig and the ids still
        # resolve to the same labels.
        assert unpack_twig(key) == (a, b, c)
        assert [interner.label(i) for i in (a, b, c)] == ["a", "b", "c"]
        assert pack_twig(a, b, c) == key

    def test_streamed_index_probes_survive_unseen_labels(self):
        """Interleave ingesting trees with unseen labels and probing.

        A pair filed before a burst of fresh labels must remain findable
        after it — the unit-level statement of the streaming bugfix
        invariant (new labels only append ids).
        """
        from repro.stream import StreamingJoin

        join = StreamingJoin(1)
        join.add(Tree.from_bracket("{a{b}{c{d}}}"))
        interner = join._driver.interner
        ids_before = {x: interner.get(x) for x in "abcd"}
        # A burst of arrivals made entirely of labels the interner has
        # never seen (they form their own cluster, far from the first).
        for k in range(8):
            join.add(Tree.from_bracket(
                "{n%d{n%d{n%d}}{n%d}}" % (k, k + 100, k + 200, k + 300)
            ))
        # Old ids unchanged...
        assert {x: interner.get(x) for x in "abcd"} == ids_before
        # ...and a near-duplicate of the first tree still finds it
        # through the index entries filed before the growth.
        found = join.add(Tree.from_bracket("{a{b}{c{e}}}"))
        assert [(p.i, p.j, p.distance) for p in found] == [(0, 9, 1)]

    def test_overflow_leaves_interner_consistent(self):
        interner = LabelInterner()
        a = interner.intern("a")
        # Pad the id space to the cap with pointer copies (cheap).
        interner._labels.extend(["x"] * (MAX_LABEL_ID - len(interner) + 1))
        with pytest.raises(Exception):
            interner.intern("one-too-many")
        # The failed intern must not have filed a dangling id.
        assert interner.get("one-too-many") is None
        assert interner.intern("a") == a
