"""Tests specific to the STR baseline (repro.baselines.str_join)."""

from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.str_join import str_join
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest


class TestBandedFlag:
    def test_banded_and_full_agree(self, rng):
        trees = make_cluster_forest(
            rng, clusters=3, cluster_size=4, base_size=10, max_edits=3
        )
        for tau in (0, 1, 2):
            banded = str_join(trees, tau, banded=True)
            full = str_join(trees, tau, banded=False)
            assert banded.pair_set() == full.pair_set()
            assert banded.stats.candidates == full.stats.candidates
            assert banded.stats.extra["banded"] is True
            assert full.stats.extra["banded"] is False


class TestFilterBehaviour:
    def test_preorder_filter_prunes(self):
        # Same size, totally different labels: preorder filter kills it.
        trees = [Tree.from_bracket("{a{a}{a}}"), Tree.from_bracket("{z{z}{z}}")]
        result = str_join(trees, 1)
        assert result.pairs == []
        assert result.stats.extra["pruned_by_preorder"] == 1
        assert result.stats.candidates == 0

    def test_postorder_filter_adds_pruning(self):
        # The paper's Figure 3 trees: preorder strings are identical
        # (SED 0) but postorder strings differ by 2 — only the postorder
        # filter prunes the pair at tau=1.
        trees = [Tree.from_bracket("{a{b}{a{c}}}"), Tree.from_bracket("{a{b{a}{c}}}")]
        result = str_join(trees, 1)
        assert result.pairs == []
        assert result.stats.extra["pruned_by_preorder"] == 0
        assert result.stats.extra["pruned_by_postorder"] == 1

    def test_candidates_superset_of_results(self, rng):
        trees = make_cluster_forest(
            rng, clusters=3, cluster_size=3, base_size=9, max_edits=2
        )
        result = str_join(trees, 2)
        assert result.stats.candidates >= result.stats.results
        truth = nested_loop_join(trees, 2).pair_set()
        assert result.pair_set() == truth

    def test_stats_phase_accounting(self, rng):
        trees = make_cluster_forest(
            rng, clusters=2, cluster_size=3, base_size=8, max_edits=2
        )
        stats = str_join(trees, 1).stats
        assert stats.method == "STR"
        assert stats.candidate_time >= 0
        assert stats.ted_calls + stats.extra["certified"] == (
            stats.candidates - stats.extra["lb_filtered"]
        )
