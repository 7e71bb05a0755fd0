"""Tests for the LC-RS (Knuth) transformation of the test reference
(tests/tree/lcrs_reference.py)."""

import pytest
from hypothesis import given

from repro.errors import TreeFormatError
from repro.tree.node import Tree
from tests.conftest import trees
from tests.tree.lcrs_reference import (
    BinaryNode,
    BinaryTree,
    EdgeKind,
    from_lcrs,
    to_lcrs,
)


class TestToLcrs:
    def test_paper_figure4(self):
        # Figure 4(a): root l1 with children l2, l6, l7; l2 -> l3 -> (l4, l5);
        # l7 -> l8 -> (l9, l10 as chain l8's children l9; l9 child l10).
        general = Tree.from_bracket("{l1{l2{l3{l4}{l5}}}{l6}{l7{l8{l9{l10}}}}}")
        binary = to_lcrs(general)
        root = binary.root
        assert root.label == "l1"
        assert root.right is None  # the root has no sibling
        assert root.left.label == "l2"  # leftmost child
        assert root.left.right.label == "l6"  # next sibling
        assert root.left.right.right.label == "l7"
        assert root.left.left.label == "l3"
        # Figure 4(b) shows l4 with right-sibling pointer to l5.
        l3 = root.left.left
        assert l3.left.label == "l4"
        assert l3.left.right.label == "l5"

    def test_single_node(self):
        binary = to_lcrs(Tree.from_bracket("{a}"))
        assert binary.root.left is None and binary.root.right is None
        assert binary.size == 1

    def test_node_count_preserved(self, rng):
        from tests.conftest import make_random_tree

        tree = make_random_tree(rng, 57)
        assert to_lcrs(tree).size == 57

    def test_labels_preserved_as_multiset(self, rng):
        from collections import Counter

        from tests.conftest import make_random_tree

        tree = make_random_tree(rng, 30)
        binary = to_lcrs(tree)
        assert Counter(n.label for n in binary.iter_postorder()) == Counter(
            tree.labels()
        )

    def test_deep_tree_no_recursion_error(self):
        chain = "{x" * 4000 + "}" * 4000
        binary = to_lcrs(Tree.from_bracket(chain))
        assert binary.size == 4000


class TestFromLcrs:
    @given(trees(max_size=20))
    def test_round_trip(self, tree):
        assert from_lcrs(to_lcrs(tree)) == tree

    def test_rejects_root_with_sibling_pointer(self):
        root = BinaryNode("a")
        root.set_right(BinaryNode("b"))
        with pytest.raises(TreeFormatError):
            from_lcrs(BinaryTree(root))


class TestEdgeKinds:
    def test_incoming_categories(self):
        binary = to_lcrs(Tree.from_bracket("{a{b{d}}{c}}"))
        root = binary.root
        assert root.incoming is EdgeKind.ROOT
        assert root.left.incoming is EdgeKind.LEFT  # b: leftmost child of a
        assert root.left.right.incoming is EdgeKind.RIGHT  # c: sibling of b
        assert root.left.left.incoming is EdgeKind.LEFT  # d: leftmost child of b

    def test_postorder_numbering_matches_figure7_convention(self):
        # Binary postorder: left subtree, right subtree, node — the root is
        # always the last node (number == size).
        binary = to_lcrs(Tree.from_bracket("{a{b}{c{d}}}"))
        assert binary.postorder_number(binary.root) == binary.size
        numbers = [binary.postorder_number(n) for n in binary.iter_postorder()]
        assert numbers == list(range(1, binary.size + 1))


class TestBinaryTree:
    def test_structural_equality(self):
        t1 = to_lcrs(Tree.from_bracket("{a{b}{c}}"))
        t2 = to_lcrs(Tree.from_bracket("{a{b}{c}}"))
        t3 = to_lcrs(Tree.from_bracket("{a{b{c}}}"))
        assert t1 == t2
        assert t1 != t3

    def test_preorder_iteration(self):
        binary = to_lcrs(Tree.from_bracket("{a{b}{c}}"))
        labels = [n.label for n in binary.iter_preorder()]
        assert labels[0] == "a"
        assert sorted(labels) == ["a", "b", "c"]

    def test_root_type_checked(self):
        with pytest.raises(TypeError):
            BinaryTree("nope")

    def test_subtree_size(self):
        binary = to_lcrs(Tree.from_bracket("{a{b{x}{y}}{c}}"))
        # b's binary subtree contains b, its children chain, and sibling c.
        assert binary.root.left.subtree_size() == binary.size - 1
