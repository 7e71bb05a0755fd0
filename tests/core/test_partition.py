"""Tests for Algorithms 2 & 3 and partition extraction (repro.core.partition)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    extract_partition,
    extract_random_partition,
    max_min_size,
    min_partitionable_size,
    partitionable,
)
from repro.core.treecache import TreeCache
from repro.errors import InvalidParameterError, NotPartitionableError
from repro.tree.node import Tree
from tests.conftest import make_random_tree, trees
from tests.tree.lcrs_reference import EdgeKind, to_lcrs

# TreeCache.incoming_code of each incoming-edge category.
INCOMING_CODE = {EdgeKind.ROOT: 0, EdgeKind.LEFT: 1, EdgeKind.RIGHT: 2}


def members(sub) -> frozenset[int]:
    """The binary postorder numbers the subgraph's bitmap marks."""
    bits = sub.member_bits
    return frozenset(b for b in range(1, len(bits)) if bits[b])


def brute_force_max_gamma(cache, delta: int) -> int:
    """Linear scan reference for MaxMinSize."""
    best = 0
    for gamma in range(1, cache.size // delta + 1):
        if partitionable(cache, delta, gamma):
            best = gamma
    return best


class TestPartitionable:
    def test_paper_figure9_example(self):
        # Figure 9 applies Algorithm 2 with delta=3, gamma=3 on an 11-node
        # binary tree and succeeds.  Our LC-RS of this general tree is a
        # different 11-node binary tree, but the figure's parameters remain
        # satisfiable for any 11-node tree with gamma=3 <= floor(11/3).
        tree = Tree.from_bracket("{l1{l2{l3{l4{l5}{l6}}}{l7{l8{l9{l10}}{l11}}}}}")
        cache = TreeCache(tree)
        assert partitionable(cache, 3, 3)

    def test_figure8_narrative(self):
        # The paper's Figure 8 example: a binary tree where four 50-node
        # triangles hang as in the figure cannot be 3-partitioned evenly;
        # gamma is limited to ~50, not 67.  We model each triangle as a
        # left chain of 50 nodes.
        chain = lambda: "{t" + "{t" * 49 + "}" * 49 + "}"
        # s1, s2 under li; s3, s4 under lj (as general-tree children).
        text = "{li" + chain() + chain() + "{lj" + chain() + chain() + "}}"
        tree = Tree.from_bracket(text)
        assert tree.size == 202
        cache = TreeCache(tree)
        assert partitionable(cache, 3, 50)
        assert not partitionable(cache, 3, 67)

    def test_gamma_times_delta_exceeding_size_fails(self):
        cache = TreeCache(Tree.from_bracket("{a{b}{c}}"))
        assert not partitionable(cache, 3, 2)

    def test_single_subgraph_always_possible(self, rng):
        tree = make_random_tree(rng, 17)
        cache = TreeCache(tree)
        assert partitionable(cache, 1, 17)

    def test_gamma_one_with_delta_equal_size(self, rng):
        tree = make_random_tree(rng, 9)
        cache = TreeCache(tree)
        assert partitionable(cache, 9, 1)

    def test_invalid_parameters(self):
        cache = TreeCache(Tree.from_bracket("{a{b}}"))
        with pytest.raises(InvalidParameterError):
            partitionable(cache, 0, 1)
        with pytest.raises(InvalidParameterError):
            partitionable(cache, 1, 0)
        with pytest.raises(NotPartitionableError):
            partitionable(cache, 5, 1)  # delta > size


class TestMaxMinSize:
    @given(trees(max_size=24), st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_scan(self, tree, delta):
        if delta > tree.size:
            return
        cache = TreeCache(tree)
        assert max_min_size(cache, delta) == brute_force_max_gamma(cache, delta)

    def test_monotone_in_delta(self, rng):
        tree = make_random_tree(rng, 40)
        cache = TreeCache(tree)
        gammas = [max_min_size(cache, delta) for delta in range(1, 8)]
        assert gammas == sorted(gammas, reverse=True)

    def test_delta_one_returns_full_size(self, rng):
        tree = make_random_tree(rng, 13)
        assert max_min_size(TreeCache(tree), 1) == 13

    def test_result_is_feasible_and_maximal(self, rng):
        for _ in range(20):
            tree = make_random_tree(rng, rng.randint(7, 45))
            delta = rng.randint(1, min(7, tree.size))
            cache = TreeCache(tree)
            gamma = max_min_size(cache, delta)
            assert partitionable(cache, delta, gamma)
            if gamma < cache.size // delta:
                assert not partitionable(cache, delta, gamma + 1)


def assert_valid_partition(tree, cache, subgraphs, delta, gamma=None):
    """The structural invariants every extraction must satisfy."""
    assert len(subgraphs) == delta
    # The LC-RS node objects, numbered independently of the cache.
    nodes = to_lcrs(tree).postorder()
    covered = set()
    for sub in subgraphs:
        inside = members(sub)
        assert inside, "empty subgraph"
        assert not (covered & inside), "overlapping subgraphs"
        covered |= inside
        if gamma is not None:
            assert sub.size >= gamma
        # The root is a member and carries the subgraph's postorder id.
        assert sub.root_number in inside
        assert sub.incoming_code == INCOMING_CODE[
            nodes[sub.root_number - 1].incoming
        ]
    assert covered == set(range(1, cache.size + 1)), "partition must cover the tree"
    ranks = [sub.rank for sub in subgraphs]
    assert ranks == list(range(1, delta + 1))
    ids = [sub.postorder_id for sub in subgraphs]
    assert ids == sorted(ids), "ranks must follow ascending postorder ids"


class TestExtraction:
    @given(trees(max_size=30), st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_maxmin_extraction_invariants(self, tree, delta):
        if delta > tree.size:
            return
        cache = TreeCache(tree)
        gamma = max_min_size(cache, delta)
        subgraphs = extract_partition(cache, owner=0, delta=delta, gamma=gamma)
        assert_valid_partition(tree, cache, subgraphs, delta, gamma)

    def test_gamma_defaults_to_maxmin(self, rng):
        tree = make_random_tree(rng, 21)
        cache = TreeCache(tree)
        explicit = extract_partition(
            cache, 0, 3, max_min_size(cache, 3)
        )
        implicit = extract_partition(cache, 0, 3)
        assert [members(s) for s in explicit] == [members(s) for s in implicit]

    def test_components_are_connected(self, rng):
        # Every member other than the subgraph root must have its binary
        # parent inside the same subgraph.
        for _ in range(10):
            tree = make_random_tree(rng, rng.randint(9, 35))
            cache = TreeCache(tree)
            delta = rng.randint(2, 5)
            if delta > tree.size:
                continue
            for sub in extract_partition(cache, 0, delta):
                inside = members(sub)
                for number in inside - {sub.root_number}:
                    assert cache.parent[number] in inside

    def test_infeasible_gamma_rejected(self):
        cache = TreeCache(Tree.from_bracket("{a{b}{c}{d}}"))
        with pytest.raises(NotPartitionableError):
            extract_partition(cache, 0, 2, gamma=4)

    def test_residual_contains_tree_root(self, rng):
        tree = make_random_tree(rng, 25)
        cache = TreeCache(tree)
        subgraphs = extract_partition(cache, 0, 5)
        last = max(subgraphs, key=lambda s: s.postorder_id)
        assert last.root_number == cache.size  # the binary root

    def test_delta_too_large(self):
        cache = TreeCache(Tree.from_bracket("{a{b}}"))
        with pytest.raises(NotPartitionableError):
            extract_partition(cache, 0, 3)

    def test_binary_numbering_variant(self, rng):
        tree = make_random_tree(rng, 18)
        cache = TreeCache(tree)
        subs = extract_partition(cache, 0, 3, numbering="binary")
        for sub in subs:
            assert sub.postorder_id == sub.root_number
        with pytest.raises(InvalidParameterError):
            extract_partition(cache, 0, 3, numbering="weird")


class TestRandomPartition:
    @given(trees(max_size=30), st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_random_extraction_invariants(self, tree, delta, seed):
        if delta > tree.size:
            return
        cache = TreeCache(tree)
        subgraphs = extract_random_partition(
            cache, owner=0, delta=delta, rng=random.Random(seed)
        )
        assert_valid_partition(tree, cache, subgraphs, delta)

    def test_random_partitions_vary_with_seed(self, rng):
        tree = make_random_tree(rng, 40)
        cache = TreeCache(tree)
        a = extract_random_partition(cache, 0, 5, random.Random(1))
        b = extract_random_partition(cache, 0, 5, random.Random(2))
        assert [members(s) for s in a] != [members(s) for s in b]


def test_min_partitionable_size():
    assert min_partitionable_size(0) == 1
    assert min_partitionable_size(1) == 3
    assert min_partitionable_size(3) == 7
