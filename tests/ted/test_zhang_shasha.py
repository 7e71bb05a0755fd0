"""Tests for the Zhang–Shasha TED algorithm (repro.ted.zhang_shasha)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ted.simple import ted_reference
from repro.ted.zhang_shasha import annotated as annotate, zhang_shasha
from repro.tree.edits import random_script
from repro.tree.node import Tree
from tests.conftest import LABELS, make_random_tree, trees


class TestKnownDistances:
    @pytest.mark.parametrize("a,b,expected", [
        ("{a}", "{a}", 0),
        ("{a}", "{b}", 1),  # rename
        ("{a{b}}", "{a}", 1),  # delete leaf
        ("{a{b}{c}}", "{a{b}}", 1),
        ("{a{b}{c}}", "{a{c}{b}}", 2),  # ordered trees: swap costs 2
        ("{a{b{c}}}", "{a{c{b}}}", 2),
        ("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}", 2),  # Zhang-Shasha's classic
    ])
    def test_pairs(self, a, b, expected):
        assert zhang_shasha(Tree.from_bracket(a), Tree.from_bracket(b)) == expected

    def test_paper_figure3_trees(self):
        # The paper states TED(T1, T2) = 3 for Figure 3.
        t1 = Tree.from_bracket("{a{b}{a{c}}}")
        t2 = Tree.from_bracket("{a{b{a}{c}}}")
        assert zhang_shasha(t1, t2) == 3

    def test_figure2_single_operations(self):
        t1 = Tree.from_bracket("{l1{l2{l3{l4{l5}{l6}}}}{l7}}")
        t2 = Tree.from_bracket("{l1{l2{l3{l5}{l6}}}{l7}}")  # delete l4
        t3 = Tree.from_bracket("{l1{l2{l3{l5}{l6}}}{l8{l7}}}")  # insert l8
        assert zhang_shasha(t1, t2) == 1
        assert zhang_shasha(t2, t3) == 1
        assert zhang_shasha(t1, t3) == 2


class TestAgainstReference:
    @given(trees(max_size=8), trees(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_oracle(self, t1, t2):
        assert zhang_shasha(t1, t2) == ted_reference(t1, t2)

    def test_randomized_larger_trees(self, rng):
        for _ in range(25):
            t1 = make_random_tree(rng, rng.randint(1, 11))
            t2 = make_random_tree(rng, rng.randint(1, 11))
            assert zhang_shasha(t1, t2) == ted_reference(t1, t2)


class TestMetricProperties:
    @given(trees(max_size=10), trees(max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, t1, t2):
        assert zhang_shasha(t1, t2) == zhang_shasha(t2, t1)

    @given(trees(max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_identity(self, t):
        assert zhang_shasha(t, t) == 0

    @given(trees(max_size=12), trees(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_size_bound(self, t1, t2):
        distance = zhang_shasha(t1, t2)
        assert distance >= abs(t1.size - t2.size)
        assert distance <= t1.size + t2.size

    @given(trees(max_size=6), st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_upper_bounded_by_edit_script(self, tree, k, seed):
        edited, ops = random_script(tree, k, random.Random(seed), LABELS)
        assert zhang_shasha(tree, edited) <= len(ops)


class TestCustomCosts:
    def test_rename_cost_function(self):
        # Make renames free: distance collapses to pure shape difference.
        free_rename = lambda a, b: 0
        t1 = Tree.from_bracket("{a{b}{c}}")
        t2 = Tree.from_bracket("{x{y}{z}}")
        assert zhang_shasha(t1, t2, rename_cost=free_rename) == 0

    def test_expensive_rename_prefers_delete_insert(self):
        costly = lambda a, b: 0 if a == b else 10
        t1 = Tree.from_bracket("{a}")
        t2 = Tree.from_bracket("{b}")
        # delete + insert (cost 2) beats rename (cost 10)
        assert zhang_shasha(t1, t2, rename_cost=costly) == 2


class TestAnnotatedTree:
    def test_keyroots_contain_root(self):
        tree = Tree.from_bracket("{a{b{c}}{d}}")
        annotated = annotate(tree)
        assert annotated.size == 4
        assert annotated.keyroots[-1] == 4  # root has the max postorder

    def test_left_chain_has_single_keyroot(self):
        annotated = annotate(Tree.from_bracket("{a{b{c{d}}}}"))
        assert annotated.keyroots == [4]
        assert annotated.keyroot_weight() == 4

    def test_keyroot_count_matches_definition(self, rng):
        # A node is a keyroot iff it is the root or has a left sibling.
        tree = make_random_tree(rng, 30)
        annotated = annotate(tree)
        expected = 1  # the root
        for node in tree.iter_preorder():
            expected += max(0, len(node.children) - 1)
        assert len(annotated.keyroots) == expected

    @given(tree=trees(max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_leaf_keyroot_table(self, tree):
        annotated = annotate(tree)
        lmld, table = annotated.lmld, annotated.leaf_keyroot
        assert len(table) == annotated.size + 1 and table[0] == 0
        for node in range(1, annotated.size + 1):
            if lmld[node] == node:  # a leaf: maps to its keyroot
                keyroot = table[node]
                assert lmld[keyroot] == node
                assert keyroot == max(
                    i for i in range(1, annotated.size + 1) if lmld[i] == node
                )
            else:
                assert table[node] == 0
        # Every keyroot appears exactly once, at its own leftmost leaf.
        listed = [k for k in table if k]
        assert sorted(listed) == annotated.keyroots
        assert len(set(listed)) == len(listed)
        assert all(table[lmld[k]] == k for k in annotated.keyroots)

    def test_reusable_across_calls(self):
        t1 = annotate(Tree.from_bracket("{a{b}}"))
        t2 = annotate(Tree.from_bracket("{a{c}}"))
        assert zhang_shasha(t1, t2) == 1
        assert zhang_shasha(t1, t2) == 1  # annotations not consumed
