"""Differential tests of the verifier's certificate.

When one optimal alignment of two trees' preorder label sequences also
keeps the aligned nodes in postorder order, its pairs form an ordered
edit mapping that costs exactly the preorder string edit distance, a
lower bound on TED; :class:`repro.baselines.common.Verifier` then returns
that distance without the banded DP (counter ``certified``).  Every
distance here, certified or not, is checked against the unbounded
:func:`repro.ted.zhang_shasha.zhang_shasha`, in both argument orders.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.common import Verifier
from repro.ted.string_edit import string_edit_alignment, string_edit_distance
from repro.ted.zhang_shasha import zhang_shasha
from repro.tree.node import Tree, TreeNode
from tests.conftest import LABELS, make_random_tree
from tests.ted.test_cutoff import comb, edited, near_pairs


def verify_both_ways(t1, t2, tau):
    """``(distance, counters)`` of one verify; either argument order gives
    the same, each on a fresh verifier with its own label numbering."""
    outcomes = []
    for pair in ((t1, t2), (t2, t1)):
        verifier = Verifier(list(pair), tau)
        outcomes.append((verifier.verify(0, 1), verifier.counters()))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def assert_exact(t1, t2, taus=range(6)):
    """Every tau's distance equals ``zhang_shasha``; returns how many of
    the verifies the certificate decided."""
    exact = zhang_shasha(t1, t2)
    certified = 0
    for tau in taus:
        distance, counters = verify_both_ways(t1, t2, tau)
        assert distance == (exact if exact <= tau else None), tau
        certified += counters["certified"]
    return certified


class TestCertifiedDistances:
    @given(pair=near_pairs(max_edits=4))
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_near_pairs(self, pair):
        assert_exact(*pair)

    @pytest.mark.parametrize("spine_first", [True, False])
    def test_combs(self, spine_first):
        rng = random.Random(60 + spine_first)
        base = comb(60, spine_first)
        certified = sum(
            assert_exact(base, edited(base, edits, rng), taus=(1, 2, 4))
            for edits in (1, 2, 4)
        )
        assert certified > 0

    def test_fan(self):
        rng = random.Random(80)
        fan = Tree(TreeNode("r", [TreeNode(LABELS[k % 4]) for k in range(80)]))
        certified = sum(
            assert_exact(fan, edited(fan, edits, rng), taus=(1, 3, 5))
            for edits in (1, 3, 5)
        )
        assert certified > 0

    def test_single_label_alphabet(self):
        rng = random.Random(1)
        for _ in range(10):
            base = make_random_tree(rng, rng.randint(20, 40), ["a"])
            assert_exact(base, edited(base, rng.randint(1, 5), rng, ["a"]))

    SUBTREE = "{q{a{c}}{b}{d{e}{f}}}"

    @pytest.mark.parametrize("offset", [1, 2, 3, 4, 5])
    def test_leaves_offset(self, offset):
        # Covers leaf offsets of tau and tau + 1 for every tau in 0..4.
        t1 = Tree.from_bracket("{r" + "{p}" * offset + self.SUBTREE + "}")
        t2 = Tree.from_bracket("{r" + self.SUBTREE + "}")
        assert assert_exact(t1, t2, taus=range(offset + 2)) > 0


class TestFallsThroughToTheDP:
    """Pairs whose preorder distance is below TED: no certificate can hold,
    so the DP must decide them."""

    @pytest.mark.parametrize("left,right,distance", [
        # Both preorders are abc.
        ("{a{b}{c}}", "{a{b{c}}}", 2),
        # abcd vs abcd: d moves under c.
        ("{a{b}{c}{d}}", "{a{b}{c{d}}}", 2),
    ])
    def test_preorder_distance_below_ted(self, left, right, distance):
        t1, t2 = Tree.from_bracket(left), Tree.from_bracket(right)
        assert zhang_shasha(t1, t2) == distance
        for tau in (distance, distance + 1):
            found, counters = verify_both_ways(t1, t2, tau)
            assert found == distance
            assert counters["certified"] == 0
            assert counters["ted_calls"] == 1
        found, counters = verify_both_ways(t1, t2, distance - 1)
        assert found is None
        assert counters["certified"] == 0

    def test_equal_preorders_certify_only_equal_trees(self):
        rng = random.Random(3)
        for _ in range(40):
            t1 = make_random_tree(rng, 8, ["a"])
            t2 = make_random_tree(rng, 8, ["a"])
            exact = zhang_shasha(t1, t2)
            found, counters = verify_both_ways(t1, t2, 3)
            assert found == (exact if exact <= 3 else None)
            if counters["certified"]:
                assert exact == 0


words = st.lists(st.sampled_from("abc"), max_size=14).map(tuple)


class TestAlignment:
    @given(words, words, st.integers(min_value=0, max_value=6))
    @settings(max_examples=300)
    def test_alignment_is_monotone_and_costs_the_distance(self, a, b, tau):
        exact = string_edit_distance(a, b)
        aligned = string_edit_alignment(a, b, tau)
        if exact > tau:
            assert aligned is None
            return
        distance, pairs = aligned
        assert distance == exact
        left = [p for p, _ in pairs]
        right = [q for _, q in pairs]
        assert left == sorted(set(left)) and right == sorted(set(right))
        assert all(0 <= p < len(a) and 0 <= q < len(b) for p, q in pairs)
        renamed = sum(a[p] != b[q] for p, q in pairs)
        assert len(a) + len(b) - 2 * len(pairs) + renamed == distance

    def test_common_prefix_and_suffix_stay_in_place(self):
        distance, pairs = string_edit_alignment("xxabyy", "xxbyy", 1)
        assert distance == 1
        assert pairs == [(0, 0), (1, 1), (3, 2), (4, 3), (5, 4)]
