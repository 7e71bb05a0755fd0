"""Tests for the subgraph index and its forward probe (repro.core.index)."""

import pytest

from repro.core.index import InvertedSizeIndex, PostorderFilter, postorder_half_width
from repro.core.intern import QueryInterner
from repro.core.partition import extract_partition
from repro.core.subgraph import EPSILON
from repro.core.treecache import TreeCache
from repro.errors import InvalidParameterError
from repro.tree.node import Tree, TreeNode
from tests.conftest import make_random_tree

OWNER = 7


def distinct_label_tree(rng, size):
    """A random tree whose labels are all different, so a subgraph's root
    twig occurs at exactly one node of its own tree."""
    root = TreeNode("n0")
    nodes = [root]
    for k in range(1, size):
        nodes.append(rng.choice(nodes).add_child(TreeNode(f"n{k}")))
    return Tree(root)


def build_subgraphs(rng, size, delta):
    cache = TreeCache(distinct_label_tree(rng, size))
    return cache, extract_partition(cache, owner=OWNER, delta=delta)


def shifted(cache, offset):
    """The same tree, its general postorder numbers moved by ``offset``."""
    copy = TreeCache(cache.tree, cache.interner)
    copy.general_post = [g + offset for g in cache.general_post]
    return copy


def single_index(tau, mode, cache, sub):
    index = InvertedSizeIndex(tau, mode)
    index.insert_all(cache.size, [sub])
    return index


def probe(index, cache):
    """Probe ``index`` at ``cache``'s size; (hits, tests, skips), candidates."""
    candidates = []
    counts = index.probe(
        cache, -1, cache.size, cache.size, "general", False, set(), candidates
    )
    return counts, candidates


class TestWindowArithmetic:
    def test_paper_window_shrinks_with_rank(self, rng):
        tau = 3
        cache, subs = build_subgraphs(rng, 30, 2 * tau + 1)
        for sub in subs:
            assert postorder_half_width(PostorderFilter.PAPER, tau, sub.rank) == (
                max(0, tau - sub.rank // 2)
            )
        # rank 1 gets the full window, the last rank gets zero.
        assert postorder_half_width(PostorderFilter.PAPER, tau, subs[0].rank) == tau
        assert postorder_half_width(PostorderFilter.PAPER, tau, subs[-1].rank) == 0

    def test_safe_window_is_constant(self, rng):
        tau = 2
        cache, subs = build_subgraphs(rng, 20, 2 * tau + 1)
        assert all(
            postorder_half_width(PostorderFilter.SAFE, tau, sub.rank) == tau
            for sub in subs
        )

    @pytest.mark.parametrize("mode", list(PostorderFilter))
    def test_probe_applies_each_window_rule(self, rng, mode):
        # Each subgraph alone in an index; its own tree probes with every
        # postorder number shifted by `offset`.  Labels are distinct, so
        # only the subgraph's own root can find it.
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for sub in subs:
            index = single_index(tau, mode, cache, sub)
            half = postorder_half_width(mode, tau, sub.rank)
            for offset in range(-tau - 1, tau + 2):
                (hits, tests, _), candidates = probe(index, shifted(cache, offset))
                found = mode is PostorderFilter.OFF or abs(offset) <= half
                assert hits == tests == int(found), (sub.rank, offset)
                assert candidates == ([OWNER] if found else [])


class TestInsertProbe:
    def test_subgraph_retrievable_at_every_window_key(self, rng):
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for sub in subs:
            index = single_index(tau, PostorderFilter.SAFE, cache, sub)
            for offset in range(-tau, tau + 1):
                assert probe(index, shifted(cache, offset))[1] == [OWNER]

    def test_probe_outside_window_misses(self, rng):
        tau = 1
        cache, subs = build_subgraphs(rng, 15, 2 * tau + 1)
        index = single_index(tau, PostorderFilter.SAFE, cache, subs[0])
        for offset in (-tau - 1, tau + 1):
            assert probe(index, shifted(cache, offset)) == ((0, 0, 0), [])

    def test_probe_with_actual_child_labels_finds_epsilon_twigs(self, rng):
        # A probe node may have real children where the stored twig has
        # epsilon (dangling bridging edges): the epsilon key variants
        # cover it.
        tau = 1
        for _ in range(20):
            cache, subs = build_subgraphs(rng, 15, 3)
            dangling = [
                sub for sub in subs
                if (sub.twig[1] == EPSILON and cache.left[sub.root_number])
                or (sub.twig[2] == EPSILON and cache.right[sub.root_number])
            ]
            for target in dangling:
                index = single_index(tau, PostorderFilter.SAFE, cache, target)
                assert probe(index, cache)[1] == [OWNER]
            if dangling:
                return
        pytest.fail("no partition with a dangling bridging edge")

    def test_wrong_label_never_returned(self, rng):
        # Labels the index has never seen get query-local ids, whose keys
        # match nothing stored.
        tau = 1
        cache, subs = build_subgraphs(rng, 15, 3)
        index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
        index.insert_all(cache.size, subs)
        query = TreeCache(
            Tree.from_bracket("{no-such-label{x}{y{z}}{w}{v}{u}{t}{s}{r}"
                              "{q}{p}{o}{m}{k}}"),
            QueryInterner(cache.interner),
        )
        assert query.size == cache.size
        assert probe(index, query) == ((0, 0, 0), [])

    def test_no_duplicates_in_probe_results(self, rng):
        # Each subgraph is stored once under its one key and a node's
        # search keys are duplicate-free, so a tree probing its own
        # partition hits every subgraph exactly once (at its root).
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 5)
        index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
        index.insert_all(cache.size, subs)
        (hits, tests, skips), candidates = probe(index, cache)
        assert hits == len(subs)
        # The first match makes the owner a candidate; the other hits of
        # the same pair are skipped without a match test.
        assert (tests, skips) == (1, len(subs) - 1)
        assert candidates == [OWNER]

    def test_off_mode_ignores_postorder(self, rng):
        tau = 1
        cache, subs = build_subgraphs(rng, 15, 3)
        index = InvertedSizeIndex(tau, PostorderFilter.OFF)
        index.insert_all(cache.size, subs)
        (hits, _, _), candidates = probe(index, shifted(cache, 999_999))
        assert hits == len(subs)
        assert candidates == [OWNER]

    def test_probe_reads_only_the_given_sizes(self, rng):
        tau = 2
        cache, subs = build_subgraphs(rng, 20, 5)
        index = InvertedSizeIndex(tau, PostorderFilter.OFF)
        index.insert_all(cache.size, subs)
        for lo, hi, found in ((20, 20, True), (18, 22, True), (21, 23, False),
                              (15, 19, False)):
            candidates = []
            index.probe(cache, -1, lo, hi, "general", False, set(), candidates)
            assert candidates == ([OWNER] if found else []), (lo, hi)

    def test_checked_pairs_are_skipped(self, rng):
        tau = 1
        cache, subs = build_subgraphs(rng, 15, 3)
        index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
        index.insert_all(cache.size, subs)
        candidates = []
        counts = index.probe(
            cache, 3, cache.size, cache.size, "general", False, {(3, OWNER)},
            candidates,
        )
        assert counts == (len(subs), 0, len(subs))
        assert candidates == []


class TestProbeLarger:
    """`probe_larger`: the larger side, where the indexed tree is the
    larger one and the probing tree may have up to ``tau`` fewer nodes."""

    def test_reads_only_the_sizes_above_the_query(self, rng):
        # The same partition filed under each size around the query's:
        # only the sizes [n + 1, n + tau] are read.
        tau = 2
        cache, subs = build_subgraphs(rng, 20, 2 * tau + 1)
        for k in range(-1, tau + 2):
            index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
            index.insert_all(cache.size + k, subs)
            candidates = []
            index.probe_larger(cache, -1, "general", set(), candidates)
            assert candidates == ([OWNER] if 1 <= k <= tau else []), k

    @pytest.mark.parametrize("mode", list(PostorderFilter))
    def test_safe_window_whatever_the_configured_filter(self, rng, mode):
        # The published window shrinks with rank, but it does not hold when
        # the larger tree is the partitioned one, so every subgraph is
        # found within the SAFE half-width tau (anywhere when the layer is
        # off) and nowhere beyond it.
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for sub in subs:
            index = InvertedSizeIndex(tau, mode)
            index.insert_all(cache.size + 1, [sub])
            for offset in range(-tau - 1, tau + 2):
                candidates = []
                index.probe_larger(
                    shifted(cache, offset), -1, "general", set(), candidates
                )
                found = mode is PostorderFilter.OFF or abs(offset) <= tau
                assert candidates == ([OWNER] if found else []), (sub.rank, offset)


def whole_tree_index(bracket, tau=1):
    """An index holding one subgraph: the whole tree of ``bracket``."""
    cache = TreeCache(Tree.from_bracket(bracket))
    index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
    index.insert_all(cache.size, extract_partition(cache, owner=OWNER, delta=1))
    return index


def probe_bracket(index, bracket):
    return probe(index, TreeCache(Tree.from_bracket(bracket)))


class TestDepthTwoKey:
    """The key holds the subgraph's member grandchildren, so a node whose
    grandchildren differ finds nothing and runs no match test."""

    def test_different_grandchild_label_is_not_a_hit(self):
        index = whole_tree_index("{a{b{c}}}")
        assert probe_bracket(index, "{a{b{x}}}") == ((0, 0, 0), [])

    @pytest.mark.parametrize("label", ["c", ""])
    def test_missing_grandchild_is_not_a_hit(self, label):
        # The grandchild moves from b's first child to b's next sibling:
        # node a keeps the twig (a, b, epsilon) but has no left-left
        # grandchild.  A "" label has epsilon's id 0; the key stores id + 1.
        index = whole_tree_index("{a{b{%s}}}" % label)
        assert probe_bracket(index, "{a{b}{%s}}" % label) == ((0, 0, 0), [])

    def test_empty_label_grandchild_is_found(self):
        index = whole_tree_index("{a{b{}}}")
        assert probe_bracket(index, "{a{b{}}}") == ((1, 1, 0), [OWNER])


class TestEntryCountIndependentOfTau:
    def test_one_entry_per_subgraph_regardless_of_tau(self, rng):
        # PR 1 filed each subgraph under 2*tau+1 duplicated postorder keys;
        # the packed-key index stores it once and resolves the window at
        # probe time, so stored entries must not grow with tau.
        tree = make_random_tree(rng, 40)
        cache = TreeCache(tree)
        entry_counts = []
        for tau in (1, 2, 3, 5):
            delta = 2 * tau + 1
            index = InvertedSizeIndex(tau, postorder_filter="safe")
            index.insert_all(40, extract_partition(cache, owner=0, delta=delta))
            assert index.total_entries == index.total_subgraphs == delta
            assert index.counts == {40: delta}
            entry_counts.append(index.total_entries / delta)
        # Normalized per-subgraph storage is exactly 1 for every tau.
        assert entry_counts == [1.0] * len(entry_counts)

    def test_entry_count_matches_inserts_across_filters(self, rng):
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for pfilter in (PostorderFilter.SAFE, PostorderFilter.PAPER,
                        PostorderFilter.OFF):
            index = InvertedSizeIndex(tau, pfilter)
            index.insert_all(cache.size, subs)
            stored = [
                entry
                for by_size in index.merged.values()
                for bucket in by_size.values()
                for entry in bucket.entries
            ]
            assert index.total_entries == len(stored) == len(subs)


class TestInvertedSizeIndex:
    def test_per_size_isolation(self, rng):
        index = InvertedSizeIndex(tau=1, postorder_filter="safe")
        cache_a, subs_a = build_subgraphs(rng, 12, 3)
        cache_b, subs_b = build_subgraphs(rng, 18, 3)
        index.insert_all(12, subs_a)
        index.insert_all(18, subs_b)
        assert index.counts == {12: 3, 18: 3}
        assert index.total_subgraphs == 6
        for by_size in index.merged.values():
            for size, bucket in by_size.items():
                owners = {entry[2].cache for entry in bucket.entries}
                assert owners == {cache_a if size == 12 else cache_b}

    def test_invalid_parameters(self):
        for tau in (-1, 1.5, True, "1"):
            with pytest.raises(InvalidParameterError):
                InvertedSizeIndex(tau=tau)
        with pytest.raises(InvalidParameterError):
            InvertedSizeIndex(tau=1, postorder_filter="nope")

    def test_postorder_filter_coercion(self):
        index = InvertedSizeIndex(tau=1, postorder_filter=PostorderFilter.PAPER)
        assert index.postorder_filter is PostorderFilter.PAPER
