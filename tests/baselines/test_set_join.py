"""Tests specific to the SET baseline (repro.baselines.set_join)."""

from repro.baselines.set_join import set_join
from repro.ted.binary_branch import binary_branch_distance
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest


class TestBibBudget:
    def test_pair_pruned_when_bib_exceeds_budget(self):
        t1 = Tree.from_bracket("{a{b}{c}{d}{e}{f}}")
        t2 = Tree.from_bracket("{z{y}{x}{w}{v}{u}}")
        assert binary_branch_distance(t1, t2) > 5  # sanity
        result = set_join([t1, t2], 1)
        assert result.stats.extra["pruned_by_bib"] == 1
        assert result.stats.candidates == 0

    def test_candidate_when_bib_within_budget(self):
        t1 = Tree.from_bracket("{a{b}{c}}")
        t2 = Tree.from_bracket("{a{b}{d}}")
        result = set_join([t1, t2], 1)
        assert result.stats.candidates == 1
        assert result.pair_set() == {(0, 1)}

    def test_budget_grows_with_tau(self, rng):
        trees = make_cluster_forest(
            rng, clusters=4, cluster_size=4, base_size=10, max_edits=4
        )
        candidates = [set_join(trees, tau).stats.candidates for tau in (0, 1, 2, 3)]
        assert candidates == sorted(candidates)

    def test_size_filter_applied_before_bib(self):
        t1 = Tree.from_bracket("{a}")
        t2 = Tree.from_bracket("{a{b}{c}{d}{e}}")
        result = set_join([t1, t2], 1)
        assert result.stats.pairs_considered == 0  # outside the size window


class TestStats:
    def test_method_name_and_counters(self, rng):
        trees = make_cluster_forest(
            rng, clusters=2, cluster_size=3, base_size=9, max_edits=2
        )
        stats = set_join(trees, 2).stats
        assert stats.method == "SET"
        assert stats.ted_calls + stats.extra["certified"] == (
            stats.candidates - stats.extra["lb_filtered"]
        )
        assert stats.results <= stats.candidates
        assert stats.pairs_considered == (
            stats.candidates + stats.extra["pruned_by_bib"]
        )
