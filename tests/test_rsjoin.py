"""Tests for non-self (R x S) joins (``TreeCollection.join_with``)."""

import pytest

from repro.core.join import PartSJConfig
from repro.errors import InvalidParameterError
from repro.session import TreeCollection
from repro.ted.zhang_shasha import zhang_shasha
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest, make_random_tree


def rs_join(left, right, tau, **options):
    """A one-shot session's R x S join: ``pair.i`` indexes ``left``."""
    plan = TreeCollection.from_trees(left).join_with(right, tau, **options)
    return plan.run()


def brute_force_rs(left, right, tau):
    return {
        (i, j, zhang_shasha(a, b))
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        if zhang_shasha(a, b) <= tau
    }


class TestRSJoin:
    def test_simple(self):
        left = [Tree.from_bracket("{a{b}{c}}")]
        right = [Tree.from_bracket("{a{b}}"), Tree.from_bracket("{z}")]
        result = rs_join(left, right, 1)
        assert [(p.i, p.j, p.distance) for p in result.pairs] == [(0, 0, 1)]

    @pytest.mark.parametrize("method", ["partsj", "str", "set", "nested_loop"])
    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_matches_brute_force(self, rng, method, tau):
        left = make_cluster_forest(
            rng, clusters=2, cluster_size=3, base_size=8, max_edits=2
        )
        right = make_cluster_forest(
            rng, clusters=2, cluster_size=3, base_size=8, max_edits=2
        )
        # Plant guaranteed cross matches: share one tree across sides.
        right.append(left[0].copy())
        expected = brute_force_rs(left, right, tau)
        result = rs_join(left, right, tau, method=method)
        assert {(p.i, p.j, p.distance) for p in result.pairs} == expected

    def test_same_side_pairs_never_reported(self, rng):
        # Two identical trees inside `left` must not appear in the output.
        twin = make_random_tree(rng, 8)
        left = [twin, twin.copy()]
        right = [make_random_tree(rng, 8)]
        result = rs_join(left, right, 0)
        assert all(0 <= p.j < len(right) for p in result.pairs)
        assert result.stats.extra["same_side_pairs_discarded"] >= 1

    def test_indices_are_per_side(self, rng):
        left = [make_random_tree(rng, 6) for _ in range(3)]
        right = [left[2].copy()]
        result = rs_join(left, right, 0)
        assert (2, 0) in {(p.i, p.j) for p in result.pairs}

    def test_stats_method_tag(self, rng):
        left = [make_random_tree(rng, 6)]
        right = [make_random_tree(rng, 6)]
        assert rs_join(left, right, 1).stats.method == "PRT-RS"

    def test_empty_sides(self):
        assert rs_join([], [Tree.from_bracket("{a}")], 1).pairs == []
        assert rs_join([Tree.from_bracket("{a}")], [], 1).pairs == []

    def test_pairs_sorted(self, rng):
        left = make_cluster_forest(rng, 2, 2, 7, 1)
        right = [t.copy() for t in left]
        result = rs_join(left, right, 2)
        keys = [(p.i, p.j) for p in result.pairs]
        assert keys == sorted(keys)


class TestRSWorkers:
    """``workers`` is a first-class argument and composes with
    ``config=`` as in a self-join."""

    def test_workers_first_class_identical_results(self, rng):
        left = make_cluster_forest(rng, 2, 3, 8, 2)
        right = make_cluster_forest(rng, 2, 3, 8, 2)
        serial = rs_join(left, right, 2)
        parallel = rs_join(left, right, 2, workers=2)
        assert [(p.i, p.j, p.distance) for p in parallel.pairs] == [
            (p.i, p.j, p.distance) for p in serial.pairs
        ]

    def test_workers_composes_with_config(self, rng):
        left = make_cluster_forest(rng, 2, 3, 8, 2)
        right = [left[0].copy()] + make_cluster_forest(rng, 1, 2, 8, 1)
        config = PartSJConfig(semantics="paper")
        serial = rs_join(left, right, 1, config=config)
        parallel = rs_join(
            left, right, 1, config=config, workers=2
        )
        assert [(p.i, p.j, p.distance) for p in parallel.pairs] == [
            (p.i, p.j, p.distance) for p in serial.pairs
        ]

    def test_workers_validated(self, rng):
        left = [make_random_tree(rng, 5)]
        with pytest.raises(InvalidParameterError, match="workers"):
            rs_join(left, left, 1, workers=0)
        with pytest.raises(InvalidParameterError, match="workers"):
            rs_join(left, left, 1, workers="four")


class TestRSErrorPaths:
    def test_empty_sides_all_shapes(self, rng):
        tree = [make_random_tree(rng, 5)]
        assert rs_join([], tree, 1).pairs == []
        assert rs_join(tree, [], 1).pairs == []
        assert rs_join([], [], 1).pairs == []
        # tau=0 on an empty side is still a valid (empty) query.
        assert rs_join([], tree, 0).pairs == []

    def test_tau_zero_exact_duplicates_only(self, rng):
        base = make_random_tree(rng, 7)
        left = [base, make_random_tree(rng, 7)]
        right = [base.copy()]
        result = rs_join(left, right, 0)
        assert {(p.i, p.j, p.distance) for p in result.pairs} == {(0, 0, 0)}

    def test_negative_tau_rejected(self, rng):
        tree = [make_random_tree(rng, 5)]
        with pytest.raises(InvalidParameterError, match="tau"):
            rs_join(tree, tree, -1)

    def test_unknown_method_rejected(self, rng):
        tree = [make_random_tree(rng, 5)]
        with pytest.raises(InvalidParameterError, match="unknown join method"):
            rs_join(tree, tree, 1, method="magic")

    def test_config_kwargs_conflict_rejected(self, rng):
        tree = [make_random_tree(rng, 5)]
        with pytest.raises(InvalidParameterError, match="not both"):
            rs_join(
                tree, tree, 1, config=PartSJConfig(), semantics="paper"
            )
