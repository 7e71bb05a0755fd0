"""Brute-force exact join: the ground truth (series REL in the figures).

Every pair passing the size filter is verified with exact TED.  An optional
lower-bound screen (enabled by default) skips provably-dissimilar pairs
without affecting the result set; it precomputes the label, degree, and
binary-branch bags once per tree so the per-pair work is three multiset L1
distances.  Disable it with ``use_bounds=False`` to measure the unassisted
nested loop.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.common import (
    DeferredVerification,
    JoinResult,
    JoinStats,
    SizeSortedCollection,
    Verifier,
    check_join_inputs,
)
from repro.obs.trace import phase_timer
from repro.ted.bounds import multiset_l1 as _multiset_l1
from repro.tree.node import Tree

__all__ = ["nested_loop_join"]


def nested_loop_join(
    trees: Sequence[Tree],
    tau: int,
    use_bounds: bool = True,
    workers: int = 1,
) -> JoinResult:
    """Exact similarity self-join by nested loops over the size window.

    Parameters
    ----------
    trees:
        The collection; results reference positions in this sequence.
    tau:
        TED threshold.
    use_bounds:
        Screen pairs with precomputed lower bounds (label bags ``L1/2``,
        degree histograms ``L1/3``, binary branch bags ``L1/5``) before
        exact TED.  The result set is identical either way.
    workers:
        With ``workers > 1`` candidates are verified in parallel through
        the shared verification pool (identical pairs and distances).

    >>> a = Tree.from_bracket("{a{b}{c}}")
    >>> b = Tree.from_bracket("{a{b}}")
    >>> [p.key() for p in nested_loop_join([a, b], 1).pairs]
    [(0, 1)]
    """
    check_join_inputs(trees, tau)
    stats = JoinStats(method="NL", tau=tau, tree_count=len(trees))
    collection = SizeSortedCollection(trees)
    # When this join screens with the bag bounds itself, the verifier skips
    # its identical checks — every candidate handed over already passed.
    # One options dict feeds both the inline and the worker-side verifiers.
    verifier_options = {"bag_bounds": not use_bounds}
    verifier = Verifier(trees, tau, **verifier_options)
    deferred = (
        DeferredVerification(workers, options=verifier_options)
        if workers > 1 else None
    )

    feats = []
    if use_bounds:
        # The screen reads the verifier's per-tree feature cache (each
        # bag is built lazily on first touch and shared thereafter).
        feats = [verifier.features(k) for k in range(len(trees))]

    pairs = []
    for pos_a, pos_b in collection.iter_window_pairs(tau):
        stats.pairs_considered += 1
        i = collection.original_index(pos_a)
        j = collection.original_index(pos_b)
        if use_bounds:
            with phase_timer(stats, "candidate_time"):
                fi, fj = feats[i], feats[j]
                pruned = (
                    _multiset_l1(fi.label_bag, fj.label_bag) > 2 * tau
                    or _multiset_l1(fi.degree_bag, fj.degree_bag) > 3 * tau
                    or _multiset_l1(fi.branch_bag, fj.branch_bag) > 5 * tau
                )
            if pruned:
                continue
        stats.candidates += 1
        if deferred is not None:
            deferred.add(i, j)
            continue
        distance = verifier.verify(i, j)
        if distance is not None:
            pairs.append(collection.make_pair(pos_a, pos_b, distance))
    stats.probe_time = stats.candidate_time  # filter-only: no insert phase
    if deferred is not None:
        pairs.extend(deferred.resolve(trees, tau, stats))
    else:
        stats.ted_calls = verifier.stats_ted_calls
        stats.verify_time = verifier.stats_time
        stats.extra.update(verifier.extra_stats())
    stats.results = len(pairs)
    pairs.sort(key=lambda p: p.key())
    return JoinResult(pairs=pairs, stats=stats)
