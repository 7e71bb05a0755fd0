"""Integration tests: every join rides the threshold-aware verifier.

The ground truth here deliberately bypasses the Verifier: it is a direct
nested loop over :func:`repro.ted.zhang_shasha.zhang_shasha`.  If the new
engine (bounds, upper-bound short-circuit, banded DP) dropped or invented
a pair anywhere, these tests catch it against an independent oracle.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.common import Verifier
from repro.baselines.histogram_join import histogram_join
from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.set_join import set_join
from repro.baselines.str_join import str_join
from repro.core.join import partsj_join
from repro.ted.zhang_shasha import zhang_shasha
from tests.conftest import make_cluster_forest
from tests.core.test_join_properties import clustered_forests

ALL_JOINS = [
    ("NL", nested_loop_join),
    ("STR", str_join),
    ("SET", set_join),
    ("HST", histogram_join),
    ("PRT", partsj_join),
]


def brute_force(trees, tau):
    """Oracle result set, computed without the Verifier."""
    return {
        (i, j): zhang_shasha(trees[i], trees[j])
        for i in range(len(trees))
        for j in range(i + 1, len(trees))
        if zhang_shasha(trees[i], trees[j]) <= tau
    }


@pytest.mark.parametrize("name,join", ALL_JOINS)
@pytest.mark.parametrize("tau", [0, 1, 2, 3])
def test_joins_match_oracle_pairs_and_distances(rng, name, join, tau):
    trees = make_cluster_forest(
        rng, clusters=4, cluster_size=4, base_size=9, max_edits=3
    )
    truth = brute_force(trees, tau)
    result = join(trees, tau)
    assert result.pair_set() == set(truth), name
    # The engine still reports exact distances for every accepted pair.
    assert {p.key(): p.distance for p in result.pairs} == truth, name


@given(forest=clustered_forests(), tau=st.integers(min_value=0, max_value=3))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_joins_match_oracle_property(forest, tau):
    truth = set(brute_force(forest, tau))
    for name, join in ALL_JOINS:
        assert join(forest, tau).pair_set() == truth, name


@pytest.mark.parametrize("name,join", ALL_JOINS)
def test_verification_counters_surface_in_stats(rng, name, join):
    trees = make_cluster_forest(
        rng, clusters=3, cluster_size=4, base_size=10, max_edits=4
    )
    stats = join(trees, 2).stats
    extra = stats.extra
    for key in Verifier.EXTRA_COUNTERS:
        assert key in extra, (name, key)
        assert extra[key] >= 0, (name, key)
    # Each candidate is rejected by a bound, certified, or runs one DP.
    assert stats.candidates == (
        extra["lb_filtered"] + extra["certified"] + stats.ted_calls
    ), name
    assert extra["certified"] > 0, name


def test_partsj_filters_actually_fire(rng):
    # Clusters far apart in label space: PartSJ's structural probe still
    # surfaces some cross-cluster candidates, which the verifier's bound
    # pipeline must reject without a DP.
    trees = make_cluster_forest(
        rng, clusters=4, cluster_size=5, base_size=12, max_edits=5
    )
    stats = partsj_join(trees, 2).stats
    assert stats.extra["lb_filtered"] + stats.extra["ub_accepted"] > 0
    assert stats.ted_calls + stats.extra["certified"] == (
        stats.candidates - stats.extra["lb_filtered"]
    )


def test_nested_loop_unassisted_equals_assisted(rng):
    trees = make_cluster_forest(
        rng, clusters=3, cluster_size=3, base_size=8, max_edits=3
    )
    assisted = nested_loop_join(trees, 2, use_bounds=True)
    unassisted = nested_loop_join(trees, 2, use_bounds=False)
    assert assisted.pair_set() == unassisted.pair_set()
