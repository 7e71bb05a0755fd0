"""Tests for structural validation (repro.tree.validate)."""

import pytest

from repro.errors import TreeFormatError
from repro.tree.node import Tree, TreeNode
from repro.tree.validate import validate_tree
from tests.tree.lcrs_reference import (
    BinaryNode,
    BinaryTree,
    to_lcrs,
    validate_binary_tree,
)


class TestValidateTree:
    def test_valid_tree_passes(self):
        validate_tree(Tree.from_bracket("{a{b{c}}{d}}"))

    def test_shared_subtree_detected(self):
        shared = TreeNode("s")
        root = TreeNode("a", [shared, TreeNode("b", [shared])])
        with pytest.raises(TreeFormatError, match="DAG"):
            validate_tree(Tree(root))

    def test_direct_duplicate_child_detected(self):
        child = TreeNode("c")
        root = TreeNode("a", [child, child])
        with pytest.raises(TreeFormatError):
            validate_tree(Tree(root))


class TestValidateBinaryTree:
    def test_lcrs_output_is_valid(self):
        validate_binary_tree(to_lcrs(Tree.from_bracket("{a{b}{c{d}}}")))

    def test_stale_parent_pointer_detected(self):
        root = BinaryNode("a")
        child = BinaryNode("b")
        root.left = child  # bypasses set_left: no parent pointer
        with pytest.raises(TreeFormatError, match="stale parent"):
            validate_binary_tree(BinaryTree(root))

    def test_root_with_parent_detected(self):
        outer = BinaryNode("o")
        root = BinaryNode("a")
        outer.set_left(root)
        with pytest.raises(TreeFormatError, match="root"):
            validate_binary_tree(BinaryTree(root))

    def test_shared_binary_node_detected(self):
        root = BinaryNode("a")
        shared = BinaryNode("s")
        root.set_left(shared)
        other = BinaryNode("b")
        root.set_right(other)
        other.set_left(shared)  # reachable twice; parent now 'other'
        shared.parent = None  # make parents ambiguous on purpose
        with pytest.raises(TreeFormatError):
            validate_binary_tree(BinaryTree(root))
