"""Tests for the tau-banded Zhang–Shasha (repro.ted.cutoff).

The central property: for every tree pair and every tau, the banded DP
returns exactly ``zhang_shasha(t1, t2)`` when that distance is ``<= tau``
and the ``None`` sentinel otherwise.  Both directions matter — a band or
early-exit bug shows up as a too-large value or a spurious sentinel.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.treecache import TreeCache
from repro.ted.cutoff import zhang_shasha_bounded
from repro.ted.zhang_shasha import annotated, zhang_shasha
from repro.tree.edits import apply_edit, random_edit
from repro.tree.node import Tree, TreeNode
from tests.conftest import LABELS, make_cluster_forest, make_random_tree, trees


def expected(t1, t2, tau, rename_cost=None):
    exact = zhang_shasha(t1, t2, rename_cost)
    return exact if exact <= tau else None


def edited(tree, edits, rng, labels=LABELS):
    """``tree`` after ``edits`` random edit operations."""
    for _ in range(edits):
        tree = apply_edit(tree, random_edit(tree, rng, labels))
    return tree


@st.composite
def near_pairs(draw, max_size=40, max_edits=6):
    """A tree and a copy at most ``max_edits`` random edits away.

    Two independent trees rarely lie within tau of each other, so they
    seldom reach the keyroot pairs and cells the strip keeps; an edited
    copy does.
    """
    labels = draw(st.sampled_from([["a"], ["a", "b"], LABELS]))
    base = draw(trees(max_size=max_size, labels=labels))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return base, edited(base, draw(st.integers(0, max_edits)), rng, labels)


def assert_agrees_both_orientations(t1, t2, taus=range(7), rename_cost=None):
    """The banded DP equals the unbounded one, on the records' leftmost
    and mirrored annotations."""
    exact = zhang_shasha(t1, t2, rename_cost)
    r1, r2 = TreeCache(t1), TreeCache(t2)
    for mirrored, (a1, a2) in (
        (False, (r1.annotation, r2.annotation)),
        (True, (r1.mirror_annotation, r2.mirror_annotation)),
    ):
        for tau in taus:
            want = exact if exact <= tau else None
            assert zhang_shasha_bounded(a1, a2, tau, rename_cost) == want, (
                tau, mirrored,
            )


def comb(size, spine_first):
    """A comb of ``size`` nodes: a spine with one leaf hung off each level.

    ``spine_first`` puts the spine in the leftmost child slot (one keyroot
    per level on the leaves); otherwise the spine is the rightmost child.
    """
    root = node = TreeNode("s")
    count = 1
    while count + 2 <= size:
        spine, leaf = TreeNode("s"), TreeNode("l" if count % 3 else "m")
        node.children = [spine, leaf] if spine_first else [leaf, spine]
        node, count = spine, count + 2
    if count < size:
        node.children = [TreeNode("l")]
    return Tree(root)


class TestAgainstUnbounded:
    @given(t1=trees(), t2=trees(), tau=st.integers(min_value=0, max_value=8))
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_agrees_with_zhang_shasha(self, t1, t2, tau):
        assert zhang_shasha_bounded(t1, t2, tau) == expected(t1, t2, tau)

    def test_clustered_forest_all_pairs_all_taus(self, rng):
        forest = make_cluster_forest(
            rng, clusters=3, cluster_size=3, base_size=10, max_edits=4
        )
        for i, t1 in enumerate(forest):
            for t2 in forest[i + 1:]:
                for tau in (0, 1, 2, 3, 5, 40):
                    assert zhang_shasha_bounded(t1, t2, tau) == expected(t1, t2, tau)

    @pytest.mark.parametrize("shape1,shape2", [
        # Combs and stars stress the keyroot structure (buffer reuse across
        # many keyroot pairs) from both extremes.
        ("{a{b{c{d{e{f}}}}}}", "{a{b{c{e{f}}}}}"),
        ("{a{b}{c}{d}{e}{f}}", "{a{b}{c}{d}{f}}"),
        ("{a{b{c}{d}}{e{f}{g}}}", "{a{b{c}{d}}{e{f}}}"),
    ])
    def test_shaped_trees(self, shape1, shape2):
        t1, t2 = Tree.from_bracket(shape1), Tree.from_bracket(shape2)
        for tau in range(0, 6):
            assert zhang_shasha_bounded(t1, t2, tau) == expected(t1, t2, tau)

    def test_custom_rename_cost(self, rng):
        double = lambda a, b: 0 if a == b else 2
        for _ in range(25):
            t1 = make_random_tree(rng, rng.randint(1, 10))
            t2 = make_random_tree(rng, rng.randint(1, 10))
            for tau in (0, 2, 4, 10):
                assert zhang_shasha_bounded(t1, t2, tau, double) == expected(
                    t1, t2, tau, double
                )


class TestSentinelAndEdges:
    def test_identical_trees(self):
        tree = Tree.from_bracket("{a{b{c}}{d}}")
        assert zhang_shasha_bounded(tree, tree.copy(), 0) == 0

    def test_size_filter_short_circuit(self):
        small = Tree.from_bracket("{a}")
        big = Tree.from_bracket("{a{b}{c}{d}{e}}")
        assert zhang_shasha_bounded(small, big, 3) is None

    def test_negative_tau_is_sentinel(self):
        tree = Tree.from_bracket("{a}")
        assert zhang_shasha_bounded(tree, tree.copy(), -1) is None

    def test_single_nodes(self):
        a, b = Tree.from_bracket("{a}"), Tree.from_bracket("{b}")
        assert zhang_shasha_bounded(a, b, 0) is None
        assert zhang_shasha_bounded(a, b, 1) == 1
        assert zhang_shasha_bounded(a, a.copy(), 0) == 0

    def test_accepts_annotated_trees(self, rng):
        t1 = make_random_tree(rng, 8)
        t2 = make_random_tree(rng, 9)
        a1, a2 = annotated(t1), annotated(t2)
        for tau in (0, 2, 5, 20):
            assert zhang_shasha_bounded(a1, a2, tau) == expected(t1, t2, tau)

    def test_huge_tau_equals_exact(self, rng):
        t1 = make_random_tree(rng, 12)
        t2 = make_random_tree(rng, 7)
        assert zhang_shasha_bounded(t1, t2, 1000) == zhang_shasha(t1, t2)

    def test_annotations_not_mutated_across_calls(self, rng):
        # The reused fd buffer lives inside one call; repeated calls on the
        # same annotations must keep agreeing.
        t1 = make_random_tree(rng, 10)
        t2 = make_random_tree(rng, 10)
        a1, a2 = annotated(t1), annotated(t2)
        first = [zhang_shasha_bounded(a1, a2, tau) for tau in (0, 1, 2, 3)]
        second = [zhang_shasha_bounded(a1, a2, tau) for tau in (0, 1, 2, 3)]
        assert first == second


class TestNearPairs:
    """Pairs within a few edits, where the keyroot strip does its pruning."""

    @given(pair=near_pairs())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_near_pairs_both_orientations(self, pair):
        t1, t2 = pair
        assert_agrees_both_orientations(t1, t2)
        assert_agrees_both_orientations(t2, t1)

    @pytest.mark.parametrize("spine_first", [True, False])
    def test_combs(self, spine_first):
        rng = random.Random(60 + spine_first)
        base = comb(60, spine_first)
        assert base.size == 60
        for edits in (1, 2, 4):
            assert_agrees_both_orientations(base, edited(base, edits, rng))

    def test_fan(self):
        rng = random.Random(80)
        fan = Tree(TreeNode("r", [TreeNode(LABELS[k % 4]) for k in range(80)]))
        for edits in (1, 3, 5):
            assert_agrees_both_orientations(fan, edited(fan, edits, rng))

    def test_single_label_alphabet(self):
        rng = random.Random(1)
        for _ in range(10):
            base = make_random_tree(rng, rng.randint(20, 40), ["a"])
            other = edited(base, rng.randint(1, 5), rng, ["a"])
            assert_agrees_both_orientations(base, other)

    # The matched subtree q sits `offset` leaves further right in t1, so
    # its keyroots' leftmost leaves (and all its nodes) differ by exactly
    # `offset`, and so does the distance (delete the extra leaves).
    SUBTREE = "{q{a{c}}{b}{d{e}{f}}}"

    def offset_pair(self, offset, subtree=SUBTREE):
        return (
            Tree.from_bracket("{r" + "{p}" * offset + subtree + "}"),
            Tree.from_bracket("{r" + self.SUBTREE + "}"),
        )

    @pytest.mark.parametrize("tau", [1, 2, 3, 5])
    def test_keyroot_leaves_offset_by_tau(self, tau):
        t1, t2 = self.offset_pair(tau)
        # A rename inside q keeps the offset at tau but costs tau + 1.
        r1, _ = self.offset_pair(tau, "{q{a{c}}{x}{d{e}{f}}}")
        for a, b in ((t1, t2), (t2, t1)):
            assert zhang_shasha_bounded(a, b, tau) == tau
        for a, b in ((r1, t2), (t2, r1)):
            assert zhang_shasha_bounded(a, b, tau) is None
            assert zhang_shasha_bounded(a, b, tau + 1) == tau + 1
        assert_agrees_both_orientations(t1, t2, taus=range(tau + 3))

    @pytest.mark.parametrize("tau", [0, 1, 2, 4])
    def test_keyroot_leaves_offset_by_tau_plus_one(self, tau):
        t1, t2 = self.offset_pair(tau + 1)
        for a, b in ((t1, t2), (t2, t1)):
            assert zhang_shasha_bounded(a, b, tau) is None
            assert zhang_shasha_bounded(a, b, tau + 1) == tau + 1

    def test_zero_cost_renames_between_labels(self):
        # Renames within {a, b} are free; the strip argument needs only
        # unit insert/delete costs, so the DP must stay exact.
        cost = lambda x, y: 0 if x == y or {x, y} <= {"a", "b"} else 1  # noqa: E731
        rng = random.Random(7)
        for _ in range(15):
            base = make_random_tree(rng, rng.randint(5, 30))
            other = edited(base, rng.randint(0, 6), rng)
            assert_agrees_both_orientations(base, other, rename_cost=cost)
