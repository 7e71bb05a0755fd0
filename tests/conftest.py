"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

# Tests import shared helpers and reference modules as ``tests.*``
# (tests.conftest, tests.core._legacy_candidates, tests.tree.lcrs_reference);
# make the repo root importable no matter where pytest was started from.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.tree.edits import random_script
from repro.tree.node import Tree, TreeNode

# A compact label alphabet keeps collisions (shared labels/subtrees) likely,
# which is where filter bugs hide.
LABELS = list("abcd")


def make_random_tree(rng: random.Random, size: int, labels=LABELS) -> Tree:
    """Uniform-ish random tree of exactly ``size`` nodes."""
    root = TreeNode(rng.choice(labels))
    nodes = [root]
    for _ in range(size - 1):
        parent = rng.choice(nodes)
        child = parent.add_child(TreeNode(rng.choice(labels)))
        nodes.append(child)
    return Tree(root)


def make_cluster_forest(
    rng: random.Random,
    clusters: int,
    cluster_size: int,
    base_size: int,
    max_edits: int,
    labels=LABELS,
) -> list[Tree]:
    """Forest with near-duplicate clusters (the join's natural workload)."""
    trees: list[Tree] = []
    for _ in range(clusters):
        base = make_random_tree(rng, base_size, labels)
        for _ in range(cluster_size):
            edited, _ = random_script(base, rng.randint(0, max_edits), rng, labels)
            trees.append(edited)
    return trees


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def paper_figure2_tree() -> Tree:
    """T1 of the paper's Figure 2."""
    return Tree.from_bracket("{l1{l2{l3{l4{l5}{l6}}}}{l7}}")


@pytest.fixture
def sample_forest(rng) -> list[Tree]:
    """A small clustered forest used across join tests."""
    return make_cluster_forest(
        rng, clusters=4, cluster_size=4, base_size=9, max_edits=3
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def _tree_from_shape(shape) -> TreeNode:
    label, children = shape
    return TreeNode(label, [_tree_from_shape(child) for child in children])


@st.composite
def trees(draw, max_size: int = 12, labels=LABELS) -> Tree:
    """Random rooted ordered labeled trees of at most ``max_size`` nodes."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    label_strategy = st.sampled_from(labels)
    root = TreeNode(draw(label_strategy))
    nodes = [root]
    for _ in range(size - 1):
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        child = parent.add_child(TreeNode(draw(label_strategy)))
        nodes.append(child)
    return Tree(root)


@st.composite
def forests(draw, max_trees: int = 8, max_size: int = 9) -> list[Tree]:
    """Random forests with a shared base to guarantee similar pairs."""
    count = draw(st.integers(min_value=2, max_value=max_trees))
    return [draw(trees(max_size=max_size)) for _ in range(count)]
