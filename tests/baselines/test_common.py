"""Tests for shared join plumbing (repro.baselines.common)."""

import pytest

from repro.baselines.common import (
    JoinPair,
    JoinResult,
    JoinStats,
    SizeSortedCollection,
    Verifier,
    check_join_inputs,
)
from repro.errors import InvalidParameterError
from repro.ted.zhang_shasha import zhang_shasha
from repro.tree.node import Tree
from tests.conftest import make_random_tree


class TestSizeSortedCollection:
    def test_order_is_ascending_by_size(self, rng):
        trees = [make_random_tree(rng, size) for size in (9, 2, 5, 7, 2)]
        collection = SizeSortedCollection(trees)
        sizes = [collection.tree_at(p).size for p in range(len(trees))]
        assert sizes == sorted(sizes)

    def test_original_indices_preserved(self, rng):
        trees = [make_random_tree(rng, size) for size in (9, 2, 5)]
        collection = SizeSortedCollection(trees)
        for position in range(3):
            i = collection.original_index(position)
            assert trees[i] is collection.tree_at(position)

    def test_window_pairs_match_brute_force(self, rng):
        trees = [make_random_tree(rng, rng.randint(2, 12)) for _ in range(12)]
        collection = SizeSortedCollection(trees)
        for tau in (0, 1, 3, 10):
            got = {
                tuple(sorted((collection.original_index(a), collection.original_index(b))))
                for a, b in collection.iter_window_pairs(tau)
            }
            expected = {
                (i, j)
                for i in range(len(trees))
                for j in range(i + 1, len(trees))
                if abs(trees[i].size - trees[j].size) <= tau
            }
            assert got == expected

    def test_window_pairs_yield_each_pair_once(self, rng):
        trees = [make_random_tree(rng, 5) for _ in range(6)]  # all same size
        collection = SizeSortedCollection(trees)
        pairs = list(collection.iter_window_pairs(0))
        assert len(pairs) == len(set(pairs)) == 15  # C(6, 2)

    def test_make_pair_canonicalizes(self, rng):
        trees = [make_random_tree(rng, 4), make_random_tree(rng, 3)]
        collection = SizeSortedCollection(trees)
        pair = collection.make_pair(0, 1, 2)  # positions, not indices
        assert pair.i < pair.j


class TestVerifier:
    def test_verify_threshold(self):
        trees = [Tree.from_bracket("{a{b}}"), Tree.from_bracket("{a{b}{c}{d}}")]
        assert Verifier(trees, tau=1).verify(0, 1) is None
        assert Verifier(trees, tau=2).verify(0, 1) == 2

    def test_counters_accumulate(self, rng):
        # Near-identical pairs pass every bound, so each verify runs a DP.
        base = make_random_tree(rng, 20)
        trees = [base, base.copy(), base, base.copy()]
        verifier = Verifier(trees, tau=2)
        assert verifier.verify(0, 1) == 0
        assert verifier.verify(2, 3) == 0
        assert verifier.stats_ted_calls == 2
        assert verifier.stats_time > 0

    def test_lower_bound_filter_counts_and_skips_dp(self):
        trees = [
            Tree.from_bracket("{a{a}{a}{a}{a}{a}{a}}"),
            Tree.from_bracket("{z{y}{x}{w}{v}{u}{t}}"),
        ]
        verifier = Verifier(trees, tau=2)
        assert verifier.verify(0, 1) is None
        assert verifier.stats_lb_filtered == 1
        assert verifier.stats_ted_calls == 0  # no DP was needed

    def test_upper_bound_accepts_without_filters(self):
        trees = [Tree.from_bracket("{a{b}}"), Tree.from_bracket("{a{c}}")]
        verifier = Verifier(trees, tau=4)  # trivial upper bound = 2 <= tau
        assert verifier.verify(0, 1) == 1  # exact distance still reported
        assert verifier.stats_ub_accepted == 1
        assert verifier.stats_lb_filtered == 0

    def test_ted_early_exit_counts(self):
        # This pair survives every bag and traversal-string bound at tau=2
        # but has TED 4, so only the banded DP's cutoff can reject it.
        trees = [
            Tree.from_bracket("{b{a{a}}{a}{a}}"),
            Tree.from_bracket("{b{a{a{a{a{a}}}}}{a}}"),
        ]
        verifier = Verifier(trees, tau=2)
        assert verifier.verify(0, 1) is None
        assert verifier.stats_ted_early_exits == 1
        assert verifier.stats_lb_filtered == 0

    def test_verify_reports_exact_distances(self, rng):
        trees = [make_random_tree(rng, rng.randint(1, 10)) for _ in range(8)]
        for tau in (0, 1, 3, 6):
            verifier = Verifier(trees, tau=tau)
            for i in range(len(trees)):
                for j in range(i + 1, len(trees)):
                    exact = zhang_shasha(trees[i], trees[j])
                    expected = exact if exact <= tau else None
                    assert verifier.verify(i, j) == expected

    def test_extra_stats_keys(self):
        verifier = Verifier([Tree.from_bracket("{a}")], tau=1)
        assert set(verifier.extra_stats()) == {
            "lb_filtered",
            "ub_accepted",
            "ted_early_exits",
        }

    def test_annotations_are_cached(self, rng):
        trees = [make_random_tree(rng, 8) for _ in range(3)]
        verifier = Verifier(trees, tau=2)
        verifier.verify(0, 1)
        record = verifier.features(0)
        first = record.annotation
        verifier.verify(0, 2)
        assert verifier.features(0) is record
        assert record.annotation is first


class TestResultTypes:
    def test_join_pair_key(self):
        assert JoinPair(2, 5, 1).key() == (2, 5)

    def test_join_result_container(self):
        pairs = [JoinPair(0, 1, 1), JoinPair(1, 2, 0)]
        result = JoinResult(pairs=pairs, stats=JoinStats("X", 1, 3))
        assert len(result) == 2
        assert result.pair_set() == {(0, 1), (1, 2)}
        assert list(result) == pairs

    def test_stats_total_time(self):
        stats = JoinStats("X", 1, 3, candidate_time=1.5, verify_time=0.5)
        assert stats.total_time == 2.0

    def test_check_join_inputs(self):
        with pytest.raises(InvalidParameterError):
            check_join_inputs([Tree.from_bracket("{a}")], -2)
        with pytest.raises(InvalidParameterError):
            check_join_inputs([object()], 1)
        check_join_inputs([Tree.from_bracket("{a}")], 0)  # fine


class TestIncrementalInsertion:
    """`SizeSortedCollection.insert`: the streaming engine's substrate."""

    def test_insert_matches_batch_construction(self, rng):
        trees = [make_random_tree(rng, rng.randint(1, 12)) for _ in range(20)]
        incremental = SizeSortedCollection([])
        for tree in trees:
            incremental.insert(tree)
        batch = SizeSortedCollection(trees)
        assert incremental.order == batch.order
        assert incremental.sizes == batch.sizes
        assert incremental.size_histogram() == batch.size_histogram()

    def test_histogram_cache_coherent_under_insertion(self, rng):
        """Regression: the cached histogram must never serve stale counts."""
        trees = [make_random_tree(rng, size) for size in (5, 5, 9)]
        collection = SizeSortedCollection(list(trees))
        first = collection.size_histogram()
        assert first == [(5, 2), (9, 1)]
        # Grow an existing run, open a new smallest run, a middle run and
        # a largest run — the cached list must update in place each time.
        collection.insert(make_random_tree(rng, 5))
        assert collection.size_histogram() == [(5, 3), (9, 1)]
        collection.insert(make_random_tree(rng, 2))
        assert collection.size_histogram() == [(2, 1), (5, 3), (9, 1)]
        collection.insert(make_random_tree(rng, 7))
        assert collection.size_histogram() == [(2, 1), (5, 3), (7, 1), (9, 1)]
        collection.insert(make_random_tree(rng, 30))
        assert collection.size_histogram() == [
            (2, 1), (5, 3), (7, 1), (9, 1), (30, 1)
        ]
        # And it must agree with a cold rebuild over the same trees.
        rebuilt = SizeSortedCollection(list(collection.trees))
        assert collection.size_histogram() == rebuilt.size_histogram()

    def test_histogram_built_after_inserts_is_correct_too(self, rng):
        collection = SizeSortedCollection([])
        for size in (4, 4, 2, 9, 4):
            collection.insert(make_random_tree(rng, size))
        # First histogram call *after* the inserts (nothing cached yet).
        assert collection.size_histogram() == [(2, 1), (4, 3), (9, 1)]

    def test_insert_is_stable_for_equal_sizes(self, rng):
        collection = SizeSortedCollection([])
        for _ in range(6):
            collection.insert(make_random_tree(rng, 5))
        assert collection.order == list(range(6))

    def test_insert_rejects_non_tree_and_immutable_backing(self, rng):
        collection = SizeSortedCollection([])
        with pytest.raises(InvalidParameterError):
            collection.insert("nope")
        frozen = SizeSortedCollection(tuple([make_random_tree(rng, 3)]))
        with pytest.raises(InvalidParameterError):
            frozen.insert(make_random_tree(rng, 3))
