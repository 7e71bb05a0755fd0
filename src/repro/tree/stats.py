"""Shape statistics for trees and collections.

The paper characterizes each dataset with: number of trees, average tree
size, number of distinct labels, average depth, and maximum depth (Section
4).  :func:`tree_stats` and :func:`collection_stats` compute exactly those
plus fanout statistics, so the dataset simulators in
:mod:`repro.datasets.realistic` can be validated against the paper's
published numbers.

Depth convention: the root is at depth 0, matching the paper's figures
(e.g. Swissprot's "maximum depth 4" for trees of 5 levels).  The *average
depth* of a tree is the mean depth over all of its nodes.

Both read a tree in one pass over its bracket text
(:func:`repro.tree.bracket.bracket_nodes`), whichever form the tree holds,
so statistics never build the nodes of a tree read from text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import InvalidParameterError
from repro.tree.bracket import bracket_nodes
from repro.tree.node import Tree

__all__ = ["TreeStats", "CollectionStats", "tree_stats", "collection_stats"]


@dataclass(frozen=True)
class TreeStats:
    """Shape summary of one tree."""

    size: int
    depth: int  # maximum node depth, root = 0
    average_depth: float  # mean node depth
    max_fanout: int
    leaf_count: int
    distinct_labels: int

    @property
    def average_fanout(self) -> float:
        """Mean out-degree over internal nodes (0 for a single-node tree)."""
        internal = self.size - self.leaf_count
        if internal == 0:
            return 0.0
        return (self.size - 1) / internal


@dataclass(frozen=True)
class CollectionStats:
    """Shape summary of a tree collection, in the paper's Section 4 format."""

    count: int
    average_size: float
    distinct_labels: int
    average_depth: float  # mean over trees of the per-tree average depth
    max_depth: int
    max_size: int
    min_size: int

    def describe(self) -> str:
        """One-line summary in the style of the paper's dataset paragraphs."""
        return (
            f"{self.count} trees (average tree size {self.average_size:.2f}, "
            f"number of distinct labels {self.distinct_labels}, "
            f"average depth {self.average_depth:.2f}, "
            f"maximum depth {self.max_depth})"
        )


def tree_stats(tree: Tree) -> TreeStats:
    """Compute :class:`TreeStats` for one tree in a single pass."""
    return _shape(tree)[0]


def _shape(tree: Tree) -> tuple[TreeStats, set[str]]:
    """``tree``'s :class:`TreeStats` and label set, from one pass over its
    nodes in preorder: a node's depth is the number of nodes open around
    it, each node counts as a child of the innermost open one, and a
    leaf's further closing braces close its ancestors."""
    size = depth_sum = max_depth = max_fanout = leaves = 0
    labels: set[str] = set()
    open_fanouts: list[int] = []  # children seen so far, per open node
    for label, closes in bracket_nodes(tree.to_bracket()):
        depth = len(open_fanouts)
        size += 1
        depth_sum += depth
        if depth > max_depth:
            max_depth = depth
        labels.add(label)
        if open_fanouts:
            open_fanouts[-1] += 1
        if not closes:
            open_fanouts.append(0)
            continue
        leaves += 1
        for _ in range(closes - 1):
            fanout = open_fanouts.pop()
            if fanout > max_fanout:
                max_fanout = fanout
    stats = TreeStats(
        size=size,
        depth=max_depth,
        average_depth=depth_sum / size,
        max_fanout=max_fanout,
        leaf_count=leaves,
        distinct_labels=len(labels),
    )
    return stats, labels


def collection_stats(trees: Sequence[Tree] | Iterable[Tree]) -> CollectionStats:
    """Compute :class:`CollectionStats` over a collection.

    Raises
    ------
    InvalidParameterError
        If the collection is empty (a :class:`ValueError` subclass).
    """
    trees = list(trees)
    if not trees:
        raise InvalidParameterError(
            "cannot compute statistics of an empty collection"
        )
    labels: set[str] = set()
    sizes: list[int] = []
    avg_depths: list[float] = []
    max_depth = 0
    for tree in trees:
        stats, tree_labels = _shape(tree)
        sizes.append(stats.size)
        avg_depths.append(stats.average_depth)
        max_depth = max(max_depth, stats.depth)
        labels |= tree_labels
    return CollectionStats(
        count=len(trees),
        average_size=sum(sizes) / len(sizes),
        distinct_labels=len(labels),
        average_depth=sum(avg_depths) / len(avg_depths),
        max_depth=max_depth,
        max_size=max(sizes),
        min_size=min(sizes),
    )
