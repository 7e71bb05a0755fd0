"""Tests for tree and collection statistics (repro.tree.stats)."""

import pytest
from hypothesis import given, settings

from repro.tree.bracket import escape_label
from repro.tree.node import Tree
from repro.tree.stats import TreeStats, collection_stats, tree_stats
from tests.conftest import trees as random_trees


def node_walk_stats(tree):
    """The reference: the stats and label set from a walk over the nodes of
    a fresh copy of ``tree`` (so ``tree`` itself keeps its form)."""
    root = Tree.from_bracket(tree.to_bracket()).root
    size = depth_sum = max_depth = max_fanout = leaves = 0
    labels = set()
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        size += 1
        depth_sum += depth
        max_depth = max(max_depth, depth)
        max_fanout = max(max_fanout, len(node.children))
        labels.add(node.label)
        leaves += node.is_leaf
        stack.extend((child, depth + 1) for child in node.children)
    stats = TreeStats(
        size=size, depth=max_depth, average_depth=depth_sum / size,
        max_fanout=max_fanout, leaf_count=leaves, distinct_labels=len(labels),
    )
    return stats, labels


def bracket(label, children=()):
    return "{" + escape_label(label) + "".join(children) + "}"


ADVERSARIAL = {
    "deep chain": "{a" * 5000 + "}" * 5000,
    "wide fan": bracket("r", [bracket("x")] * 5000),
    "empty labels": bracket("", [bracket(""), bracket("", [bracket("")])]),
    "escaped labels": bracket("{", [bracket("}"), bracket("\\", [
        bracket("a{b}c")]), bracket("\\{")]),
    "unicode labels": bracket("é", [bracket("日本"), bracket("é", [
        bracket("\u2028")])]),
}


class TestTreeStats:
    def test_single_node(self):
        stats = tree_stats(Tree.from_bracket("{a}"))
        assert stats.size == 1
        assert stats.depth == 0
        assert stats.average_depth == 0.0
        assert stats.max_fanout == 0
        assert stats.leaf_count == 1
        assert stats.distinct_labels == 1
        assert stats.average_fanout == 0.0

    def test_known_tree(self):
        # depth profile: a=0, b=1, c=1, d=2 -> avg 1.0
        stats = tree_stats(Tree.from_bracket("{a{b{d}}{c}}"))
        assert stats.size == 4
        assert stats.depth == 2
        assert stats.average_depth == 1.0
        assert stats.max_fanout == 2
        assert stats.leaf_count == 2
        assert stats.distinct_labels == 4

    def test_repeated_labels_counted_once(self):
        stats = tree_stats(Tree.from_bracket("{a{a}{a}}"))
        assert stats.distinct_labels == 1

    def test_average_fanout(self):
        # 4 edges over 2 internal nodes
        stats = tree_stats(Tree.from_bracket("{a{b{x}{y}{z}}}"))
        assert stats.average_fanout == pytest.approx(4 / 2)


class TestCollectionStats:
    def test_describe_matches_paper_format(self):
        trees = [Tree.from_bracket("{a{b}}"), Tree.from_bracket("{a{b}{c{d}}}")]
        stats = collection_stats(trees)
        assert stats.count == 2
        assert stats.average_size == pytest.approx(3.0)
        assert stats.distinct_labels == 4
        assert stats.max_depth == 2
        assert stats.min_size == 2 and stats.max_size == 4
        text = stats.describe()
        assert "2 trees" in text and "average tree size 3.00" in text

    def test_average_depth_is_mean_of_tree_means(self):
        # tree1 avg depth 0.5; tree2 avg depth 0.5 -> 0.5
        trees = [Tree.from_bracket("{a{b}}"), Tree.from_bracket("{x{y}}")]
        assert collection_stats(trees).average_depth == pytest.approx(0.5)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            collection_stats([])

    def test_accepts_iterators(self):
        stats = collection_stats(iter([Tree.from_bracket("{a}")]))
        assert stats.count == 1


class TestOnePass:
    """The stats come from one pass over the bracket text: equal to a walk
    over the nodes, and no tree read from text builds its nodes."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_equal_to_the_node_walk(self, name):
        tree = Tree.from_bracket(ADVERSARIAL[name])
        expected, labels = node_walk_stats(tree)
        assert tree_stats(tree) == expected
        assert tree.text is not None  # no nodes were built
        built = Tree.from_bracket(ADVERSARIAL[name])
        built.root  # the same tree held as nodes
        assert tree_stats(built) == expected
        stats = collection_stats([tree, built])
        assert stats.distinct_labels == len(labels)
        assert (stats.max_depth, stats.min_size, stats.max_size) == (
            expected.depth, expected.size, expected.size,
        )
        assert tree.text is not None

    @settings(max_examples=60, deadline=None)
    @given(random_trees(max_size=20, labels=["", "x", "{", "\\", "é"]))
    def test_random_trees_equal_the_node_walk(self, tree):
        assert tree_stats(tree) == node_walk_stats(tree)[0]

    def test_collection_stats_parse_no_nodes(self):
        collection = [Tree.from_bracket(text) for text in ADVERSARIAL.values()]
        stats = collection_stats(collection)
        labels = set()
        for tree in collection:
            labels |= node_walk_stats(tree)[1]
        assert stats.distinct_labels == len(labels)
        assert all(tree.text is not None for tree in collection)
