"""Tests for the PartSJ join driver (repro.core.join)."""

import pytest

from repro.baselines.nested_loop import nested_loop_join
from repro.core.join import PartSJConfig, partsj_join
from repro.core.subgraph import MatchSemantics
from repro.errors import InvalidParameterError
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest

SAFE_CONFIGS = [
    PartSJConfig(),  # defaults
    PartSJConfig(semantics="paper", postorder_filter="safe"),
    PartSJConfig(semantics="paper", postorder_filter="off"),
    PartSJConfig(semantics="safe", postorder_filter="off"),
    PartSJConfig(partition_strategy="random", postorder_filter="off"),
    PartSJConfig(postorder_numbering="binary", postorder_filter="off"),
]


class TestBasics:
    def test_identical_pair(self):
        trees = [Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{a{b}{c}}")]
        result = partsj_join(trees, 0)
        assert result.pair_set() == {(0, 1)}
        assert result.pairs[0].distance == 0

    def test_empty_collection(self):
        result = partsj_join([], 2)
        assert result.pairs == []
        assert result.stats.results == 0

    def test_single_tree(self):
        assert partsj_join([Tree.from_bracket("{a}")], 3).pairs == []

    def test_pairs_canonical_and_sorted(self, sample_forest):
        result = partsj_join(sample_forest, 2)
        keys = [p.key() for p in result.pairs]
        assert keys == sorted(keys)
        assert all(i < j for i, j in keys)

    def test_invalid_tau(self, sample_forest):
        with pytest.raises(InvalidParameterError):
            partsj_join(sample_forest, -1)

    def test_invalid_tree_type(self):
        with pytest.raises(InvalidParameterError):
            partsj_join([Tree.from_bracket("{a}"), "nope"], 1)


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            PartSJConfig(partition_strategy="zigzag").resolved()
        with pytest.raises(InvalidParameterError):
            PartSJConfig(postorder_filter="sometimes").resolved()
        with pytest.raises(InvalidParameterError):
            PartSJConfig(postorder_numbering="roman").resolved()
        with pytest.raises(ValueError):
            PartSJConfig(semantics="vibes").resolved()

    def test_string_fields_coerced(self):
        cfg = PartSJConfig(semantics="paper", postorder_filter="off").resolved()
        assert cfg.semantics is MatchSemantics.PAPER

    def test_paper_preset(self):
        cfg = PartSJConfig.paper().resolved()
        assert cfg.semantics is MatchSemantics.PAPER


class TestEquivalenceWithGroundTruth:
    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_safe_configs_match_brute_force(self, rng, tau):
        trees = make_cluster_forest(
            rng, clusters=4, cluster_size=4, base_size=10, max_edits=3
        )
        truth = nested_loop_join(trees, tau).pair_set()
        for config in SAFE_CONFIGS:
            result = partsj_join(trees, tau, config)
            assert result.pair_set() == truth, config

    def test_distances_match_ground_truth(self, rng):
        trees = make_cluster_forest(
            rng, clusters=3, cluster_size=3, base_size=9, max_edits=2
        )
        truth = {p.key(): p.distance for p in nested_loop_join(trees, 2).pairs}
        ours = {p.key(): p.distance for p in partsj_join(trees, 2).pairs}
        assert ours == truth

    def test_published_window_is_subset_of_truth(self, rng):
        # The published postorder window may drop results (EXPERIMENTS.md
        # finding F1) but must never invent pairs.
        trees = make_cluster_forest(
            rng, clusters=5, cluster_size=4, base_size=10, max_edits=3
        )
        for tau in (1, 2):
            truth = nested_loop_join(trees, tau).pair_set()
            got = partsj_join(trees, tau, PartSJConfig.paper()).pair_set()
            assert got <= truth


class TestSmallTreePool:
    def test_tiny_trees_are_joined_exactly(self):
        # All trees smaller than 2*tau+1 = 7: the Lemma 2 filter cannot be
        # used at all; everything flows through the small pool.
        trees = [
            Tree.from_bracket("{a}"),
            Tree.from_bracket("{a{b}}"),
            Tree.from_bracket("{a{b}{c}}"),
            Tree.from_bracket("{x{y}}"),
            Tree.from_bracket("{a{b{c}}}"),
        ]
        tau = 3
        truth = nested_loop_join(trees, tau).pair_set()
        result = partsj_join(trees, tau)
        assert result.pair_set() == truth
        assert result.stats.extra["small_trees"] == len(trees)
        assert result.stats.extra["small_pool_pairs"] > 0

    def test_mixed_small_and_large(self, rng):
        from tests.conftest import make_random_tree

        trees = [make_random_tree(rng, size) for size in (2, 3, 4, 9, 10, 11, 20)]
        for tau in (1, 2, 3):
            truth = nested_loop_join(trees, tau).pair_set()
            assert partsj_join(trees, tau).pair_set() == truth

    def test_large_trees_never_enter_pool(self, sample_forest):
        result = partsj_join(sample_forest, 1)
        assert result.stats.extra["small_trees"] == 0


class TestStatistics:
    def test_counters_are_consistent(self, sample_forest):
        result = partsj_join(sample_forest, 2)
        stats = result.stats
        assert stats.method == "PRT"
        assert stats.tree_count == len(sample_forest)
        assert stats.results == len(result.pairs)
        # Each candidate is rejected by a verifier bound (no DP), certified
        # by its preorder alignment (no DP), or verified with one banded DP.
        assert stats.ted_calls + stats.extra["certified"] == (
            stats.candidates - stats.extra["lb_filtered"]
        )
        assert stats.results <= stats.candidates
        assert stats.extra["match_hits"] <= stats.extra["match_tests"]
        assert stats.extra["match_hits"] + stats.extra["small_pool_pairs"] == (
            stats.candidates
        )

    def test_partition_counters(self, sample_forest):
        tau = 1
        result = partsj_join(sample_forest, tau)
        extra = result.stats.extra
        partitioned = extra["partitioned_trees"]
        assert partitioned == len(sample_forest) - extra["small_trees"]
        assert extra["subgraphs_built"] == partitioned * (2 * tau + 1)
        assert extra["total_indexed_subgraphs"] == extra["subgraphs_built"]

    def test_each_pair_verified_once(self, rng):
        # Even when many subgraphs of the same pair match, each pair is
        # verified once: equal trees are certified, without a DP.
        trees = [Tree.from_bracket("{a{b}{c}{d}{e}{f}{g}}") for _ in range(3)]
        result = partsj_join(trees, 1)
        stats = result.stats
        assert stats.candidates == 3  # the three pairs
        assert stats.extra["certified"] + stats.ted_calls == 3

    def test_summary_text(self, sample_forest):
        text = partsj_join(sample_forest, 1).stats.summary()
        assert "PRT" in text and "candidates" in text


class TestTauZero:
    def test_exact_duplicate_join(self, rng):
        base = Tree.from_bracket("{a{b{c}}{d}}")
        trees = [base.copy(), base.copy(), Tree.from_bracket("{a{b{c}}{e}}")]
        result = partsj_join(trees, 0)
        assert result.pair_set() == {(0, 1)}

    def test_tau_zero_matches_brute_force(self, rng):
        trees = make_cluster_forest(
            rng, clusters=3, cluster_size=4, base_size=8, max_edits=1
        )
        truth = nested_loop_join(trees, 0).pair_set()
        assert partsj_join(trees, 0).pair_set() == truth
