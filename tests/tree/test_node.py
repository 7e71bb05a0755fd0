"""Tests for the general-tree data model (repro.tree.node)."""

import pickle

import pytest

from repro.tree.node import Tree, TreeNode


class TestTreeNode:
    def test_construction_and_children_order(self):
        node = TreeNode("a", [TreeNode("b"), TreeNode("c")])
        assert node.label == "a"
        assert [c.label for c in node.children] == ["b", "c"]

    def test_label_is_coerced_to_string(self):
        assert TreeNode(42).label == "42"

    def test_add_child_returns_child_and_appends(self):
        root = TreeNode("a")
        child = root.add_child(TreeNode("b"))
        root.add_child(TreeNode("c"))
        assert child.label == "b"
        assert [c.label for c in root.children] == ["b", "c"]

    def test_is_leaf_and_degree(self):
        root = TreeNode("a", [TreeNode("b")])
        assert not root.is_leaf
        assert root.degree == 1
        assert root.children[0].is_leaf

    def test_subtree_size(self):
        tree = Tree.from_bracket("{a{b{c}{d}}{e}}")
        assert tree.root.subtree_size() == 5
        assert tree.root.children[0].subtree_size() == 3

    def test_copy_is_deep(self):
        original = Tree.from_bracket("{a{b}}")
        duplicate = original.root.copy()
        duplicate.children[0].label = "changed"
        assert original.root.children[0].label == "b"

    def test_structural_equality(self):
        a = Tree.from_bracket("{a{b}{c}}").root
        b = Tree.from_bracket("{a{b}{c}}").root
        c = Tree.from_bracket("{a{c}{b}}").root
        assert a == b
        assert a != c  # order matters in ordered trees

    def test_equality_checks_shape_not_just_labels(self):
        flat = Tree.from_bracket("{a{b}{c}}").root
        nested = Tree.from_bracket("{a{b{c}}}").root
        assert flat != nested

    def test_nodes_hash_by_identity(self):
        a = TreeNode("x")
        b = TreeNode("x")
        assert a == b  # structurally equal
        assert len({a, b}) == 2  # but distinct dict/set keys


class TestTraversals:
    def test_preorder(self):
        tree = Tree.from_bracket("{a{b{d}{e}}{c}}")
        assert [n.label for n in tree.iter_preorder()] == ["a", "b", "d", "e", "c"]

    def test_postorder(self):
        tree = Tree.from_bracket("{a{b{d}{e}}{c}}")
        assert [n.label for n in tree.iter_postorder()] == ["d", "e", "b", "c", "a"]

    def test_single_node(self):
        tree = Tree.from_bracket("{a}")
        assert [n.label for n in tree.iter_preorder()] == ["a"]
        assert [n.label for n in tree.iter_postorder()] == ["a"]

    def test_traversals_cover_all_nodes_once(self, rng):
        from tests.conftest import make_random_tree

        tree = make_random_tree(rng, 40)
        pre = list(tree.iter_preorder())
        post = list(tree.iter_postorder())
        assert len(pre) == len(post) == 40
        assert {id(n) for n in pre} == {id(n) for n in post}

    def test_deep_tree_traversal_does_not_recurse(self):
        # 5000-deep chain would blow the default recursion limit if the
        # iterators were recursive.
        root = TreeNode("0")
        node = root
        for k in range(1, 5000):
            node = node.add_child(TreeNode(str(k)))
        tree = Tree(root)
        assert tree.size == 5000
        assert sum(1 for _ in tree.iter_postorder()) == 5000

    def test_traversal_label_lists(self):
        tree = Tree.from_bracket("{a{b}{c}}")
        assert tree.preorder_labels() == ["a", "b", "c"]
        assert tree.postorder_labels() == ["b", "c", "a"]
        assert sorted(tree.labels()) == ["a", "b", "c"]


class TestTree:
    def test_size_is_cached(self):
        tree = Tree.from_bracket("{a{b}{c}}")
        assert tree.size == 3
        assert len(tree) == 3
        assert tree._size == 3  # populated after first access

    def test_root_type_checked(self):
        with pytest.raises(TypeError):
            Tree("not a node")

    def test_copy_independent(self):
        tree = Tree.from_bracket("{a{b}}")
        clone = tree.copy()
        clone.root.label = "z"
        assert tree.root.label == "a"

    def test_equality(self):
        assert Tree.from_bracket("{a{b}}") == Tree.from_bracket("{a{b}}")
        assert Tree.from_bracket("{a{b}}") != Tree.from_bracket("{a{c}}")

    def test_trees_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Tree.from_bracket("{a}"))


class TestTreePickle:
    """Trees pickle as bracket text: the spawn pool's initargs path."""

    @staticmethod
    def round_trip(tree):
        clone = pickle.loads(pickle.dumps(tree))
        assert isinstance(clone, Tree)
        assert clone == tree
        assert clone.preorder_labels() == tree.preorder_labels()
        return clone

    def test_deep_chain(self):
        # Default pickling recurses once per level and overflows here.
        root = node = TreeNode("r")
        for k in range(5000):
            node = node.add_child(TreeNode(str(k % 7)))
        assert self.round_trip(Tree(root)).size == 5001

    def test_wide_fan(self):
        fan = Tree(TreeNode("r", [TreeNode(str(k)) for k in range(2000)]))
        assert self.round_trip(fan).root.degree == 2000

    @pytest.mark.parametrize(
        "label", ["", " ", "\u00e9\u65e5\u672c", "{", "\\"],
        ids=["empty", "space", "unicode", "brace", "backslash"],
    )
    def test_awkward_labels(self, label):
        tree = Tree(TreeNode(label, [
            TreeNode(label), TreeNode("x", [TreeNode(label)]),
        ]))
        self.round_trip(tree)
