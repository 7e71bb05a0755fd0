"""Shard-plan invariants: coverage, handoff bands, balance, degeneracy.

Pure planning tests — no worker pool is started.  The executor-level
equivalence (identical join results at every worker count) lives in
``test_parallel_join.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.common import SizeSortedCollection
from repro.errors import InvalidParameterError
from repro.parallel.sharding import estimated_probe_cost, plan_shards
from tests.conftest import make_random_tree


def make_forest(rng, count, min_size=2, max_size=30):
    return [make_random_tree(rng, rng.randint(min_size, max_size))
            for _ in range(count)]


def check_plan_invariants(collection, tau, plans):
    """The structural properties every legal plan must satisfy."""
    sizes = collection.sizes
    order = collection.order
    # Owned runs are non-empty, contiguous, and cover the sorted order.
    assert all(plan.owned for plan in plans)
    covered = [i for plan in plans for i in plan.owned]
    assert covered == list(order)
    for plan in plans:
        assert plan.owned == tuple(order[plan.start:plan.stop])
        assert plan.lo == sizes[plan.start]
        assert plan.hi == sizes[plan.stop - 1]
        # The band is exactly the earlier positions within tau of lo.
        assert plan.band == tuple(order[plan.band_start:plan.start])
        for position in range(plan.band_start, plan.start):
            assert sizes[position] >= plan.lo - tau
        if plan.band_start > 0:
            assert sizes[plan.band_start - 1] < plan.lo - tau
    # Shard ids are dense and ordered.
    assert [plan.shard_id for plan in plans] == list(range(len(plans)))


class TestPlanShards:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=0, max_value=60),
        tau=st.integers(min_value=0, max_value=4),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariants_hold_for_random_collections(
        self, seed, count, tau, workers
    ):
        rng = random.Random(seed)
        collection = SizeSortedCollection(make_forest(rng, count))
        plans = plan_shards(collection, tau, workers)
        if count == 0:
            assert plans == []
            return
        assert 1 <= len(plans) <= min(workers, count)
        check_plan_invariants(collection, tau, plans)

    def test_all_trees_one_size_still_shards(self, rng):
        # Degenerate: a single size run.  Boundaries split the run and the
        # band re-inserts the earlier equal-size trees.
        trees = [make_random_tree(rng, 12) for _ in range(20)]
        collection = SizeSortedCollection(trees)
        plans = plan_shards(collection, tau=2, workers=4)
        assert len(plans) == 4
        check_plan_invariants(collection, 2, plans)
        for plan in plans[1:]:
            # Every earlier tree is within tau of lo (same size), so the
            # band is the whole prefix.
            assert plan.band_start == 0

    def test_collection_smaller_than_worker_count(self, rng):
        trees = make_forest(rng, 3)
        collection = SizeSortedCollection(trees)
        plans = plan_shards(collection, tau=1, workers=8)
        assert len(plans) == 3
        check_plan_invariants(collection, 1, plans)

    def test_empty_collection(self):
        assert plan_shards(SizeSortedCollection([]), tau=1, workers=4) == []

    def test_single_tree(self, rng):
        collection = SizeSortedCollection([make_random_tree(rng, 5)])
        plans = plan_shards(collection, tau=3, workers=4)
        assert len(plans) == 1
        assert plans[0].band == ()
        check_plan_invariants(collection, 3, plans)

    def test_first_shard_has_empty_band(self, rng):
        collection = SizeSortedCollection(make_forest(rng, 30))
        plans = plan_shards(collection, tau=2, workers=3)
        assert plans[0].band == ()

    def test_cost_balance_within_factor(self, rng):
        # Uniform-ish forest: no shard should end up with more than ~2x
        # the ideal share of estimated cost (loose, but catches a planner
        # that dumps everything into one shard).
        collection = SizeSortedCollection(make_forest(rng, 200, 10, 40))
        plans = plan_shards(collection, tau=2, workers=4)
        assert len(plans) == 4
        total = sum(plan.est_cost for plan in plans)
        for plan in plans:
            assert plan.est_cost <= 2 * total / len(plans)

    def test_gapped_sizes_bound_the_band(self, rng):
        # Sizes 5 and 40 only: with tau=2 no size-40 shard can need the
        # size-5 trees, so its band stays empty.
        trees = [make_random_tree(rng, 5) for _ in range(10)]
        trees += [make_random_tree(rng, 40) for _ in range(10)]
        collection = SizeSortedCollection(trees)
        plans = plan_shards(collection, tau=2, workers=2)
        check_plan_invariants(collection, 2, plans)
        for plan in plans:
            if plan.lo == 40:
                assert all(
                    collection.sizes[q] >= 38
                    for q in range(plan.band_start, plan.start)
                )

    def test_invalid_parameters(self, rng):
        collection = SizeSortedCollection(make_forest(rng, 4))
        with pytest.raises(InvalidParameterError):
            plan_shards(collection, tau=1, workers=0)
        with pytest.raises(InvalidParameterError):
            plan_shards(collection, tau=-1, workers=2)


class TestSizeHistogram:
    def test_runs_match_sizes(self, rng):
        trees = make_forest(rng, 50)
        collection = SizeSortedCollection(trees)
        histogram = collection.size_histogram()
        # Expansion reproduces the sorted sizes exactly.
        expanded = [size for size, count in histogram for _ in range(count)]
        assert expanded == collection.sizes
        # Strictly ascending distinct sizes.
        assert [s for s, _ in histogram] == sorted({t.size for t in trees})

    def test_cached(self, rng):
        collection = SizeSortedCollection(make_forest(rng, 10))
        assert collection.size_histogram() is collection.size_histogram()

    def test_empty(self):
        assert SizeSortedCollection([]).size_histogram() == []


def test_estimated_probe_cost_scales_with_size_and_tau():
    assert estimated_probe_cost(10, 2) == 40
    assert estimated_probe_cost(20, 2) > estimated_probe_cost(10, 2)
    assert estimated_probe_cost(10, 3) > estimated_probe_cost(10, 2)
