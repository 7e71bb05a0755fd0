"""Baseline join methods: brute force (REL), STR, SET, histogram filters."""

from repro.ted.binary_branch import (
    EPSILON,
    binary_branch_distance,
    binary_branches,
    branch_bag_distance,
)
from repro.baselines.common import (
    JoinPair,
    JoinResult,
    JoinStats,
    SizeSortedCollection,
    Verifier,
)
from repro.baselines.histogram_join import histogram_join
from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.set_join import set_join
from repro.baselines.str_join import str_join

__all__ = [
    "JoinPair",
    "JoinResult",
    "JoinStats",
    "SizeSortedCollection",
    "Verifier",
    "nested_loop_join",
    "str_join",
    "set_join",
    "histogram_join",
    "binary_branches",
    "binary_branch_distance",
    "branch_bag_distance",
    "EPSILON",
]
