"""Histogram-filter join in the spirit of Kailing et al. [16].

An extra baseline beyond the paper's experimental section (listed in its
related work): pairs are screened by three O(n) histogram lower bounds —
size, label multiset, and degree histogram — before exact verification.
Cheap but looser than STR, it is useful as a sanity baseline in the bench
harness and exercises :mod:`repro.ted.bounds` at scale.
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

__all__ = ["histogram_join"]


def histogram_join(
    trees: Sequence[Tree], tau: int, workers: int = 1
) -> JoinResult:
    """Similarity self-join with label and degree histogram filters.

    ``workers > 1`` verifies candidates in parallel through the shared
    verification pool (identical pairs and distances).

    >>> a = Tree.from_bracket("{a{b}{c}}")
    >>> b = Tree.from_bracket("{a{b}}")
    >>> [p.key() for p in histogram_join([a, b], 1).pairs]
    [(0, 1)]
    """
    check_join_inputs(trees, tau)
    stats = JoinStats(method="HST", tau=tau, tree_count=len(trees))
    collection = SizeSortedCollection(trees)
    # The verifier skips the label/degree bounds this screen applies and
    # still adds the binary-branch and traversal bounds the screen lacks.
    # One options dict feeds both the inline and the worker-side verifiers.
    verifier_options = {"bag_bounds": ("branches",)}
    verifier = Verifier(trees, tau, **verifier_options)
    deferred = (
        DeferredVerification(workers, options=verifier_options)
        if workers > 1 else None
    )

    # The histogram filters read the verifier's per-tree feature cache:
    # each label/degree bag is built lazily on first touch and shared.
    feats = [verifier.features(k) for k in range(len(trees))]

    pruned_labels = 0
    pruned_degrees = 0
    pairs = []
    for pos_a, pos_b in collection.iter_window_pairs(tau):
        stats.pairs_considered += 1
        i = collection.original_index(pos_a)
        j = collection.original_index(pos_b)

        with phase_timer(stats, "candidate_time"):
            label_ok = (
                _multiset_l1(feats[i].label_bag, feats[j].label_bag) <= 2 * tau
            )
            degree_ok = label_ok and (
                _multiset_l1(feats[i].degree_bag, feats[j].degree_bag)
                <= 3 * tau
            )
        if not label_ok:
            pruned_labels += 1
            continue
        if not degree_ok:
            pruned_degrees += 1
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
    stats.extra["pruned_by_labels"] = pruned_labels
    stats.extra["pruned_by_degrees"] = pruned_degrees
    pairs.sort(key=lambda p: p.key())
    return JoinResult(pairs=pairs, stats=stats)
