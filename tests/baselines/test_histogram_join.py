"""Tests for the histogram-filter join (repro.baselines.histogram_join)."""

from repro.baselines.histogram_join import histogram_join
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest


class TestFilters:
    def test_label_filter_prunes_disjoint_alphabets(self):
        trees = [Tree.from_bracket("{a{a}{a}}"), Tree.from_bracket("{z{z}{z}}")]
        result = histogram_join(trees, 1)
        assert result.pairs == []
        assert result.stats.extra["pruned_by_labels"] == 1

    def test_degree_filter_catches_shape_changes(self):
        # Same label bag, very different degree profile.
        star = Tree.from_bracket("{a{b}{b}{b}{b}{b}{b}}")
        chain = Tree.from_bracket("{a{b{b{b{b{b{b}}}}}}}")
        result = histogram_join([star, chain], 1)
        assert result.pairs == []
        assert result.stats.extra["pruned_by_degrees"] == 1

    def test_exactness(self, rng):
        from repro.baselines.nested_loop import nested_loop_join

        trees = make_cluster_forest(
            rng, clusters=3, cluster_size=4, base_size=9, max_edits=3
        )
        for tau in (0, 1, 2):
            assert histogram_join(trees, tau).pair_set() == (
                nested_loop_join(trees, tau).pair_set()
            )

    def test_stats(self, sample_forest):
        stats = histogram_join(sample_forest, 2).stats
        assert stats.method == "HST"
        # The verifier's bound pipeline may reject candidates without a DP;
        # every other candidate is certified or runs exactly one DP.
        assert stats.ted_calls + stats.extra["certified"] == (
            stats.candidates - stats.extra["lb_filtered"]
        )
