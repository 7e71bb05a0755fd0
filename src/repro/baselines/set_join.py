"""SET: the binary branch baseline (Yang et al. [27]).

Each tree is transformed once into its bag of binary branches (a
``tau``-insensitive transformation — the paper stresses this as SET's
weakness).  A pair within the size window is a candidate iff

``BIB(T1, T2) = |X1| + |X2| - 2 |X1 ∩ X2| <= 5 * tau``

because ``BIB <= 5 * TED``.  Candidate generation is cheap (bag
intersection is linear in bag size) but the filter is loose, so — as in
Figures 10/11 — SET's runtime is dominated by exact TED verification and
its candidate count grows quickly with ``tau``.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.binary_branch import branch_bag_distance
from repro.baselines.common import (
    DeferredVerification,
    JoinResult,
    JoinStats,
    SizeSortedCollection,
    Verifier,
    check_join_inputs,
)
from repro.obs.trace import phase_timer
from repro.tree.node import Tree

__all__ = ["set_join"]


def set_join(
    trees: Sequence[Tree], tau: int, workers: int = 1
) -> JoinResult:
    """Similarity self-join with the binary branch filter.

    ``workers > 1`` verifies candidates in parallel through the shared
    verification pool (identical pairs and distances).

    >>> a = Tree.from_bracket("{a{b}{c}}")
    >>> b = Tree.from_bracket("{a{b}}")
    >>> [p.key() for p in set_join([a, b], 1).pairs]
    [(0, 1)]
    """
    check_join_inputs(trees, tau)
    stats = JoinStats(method="SET", tau=tau, tree_count=len(trees))
    collection = SizeSortedCollection(trees)
    # The verifier skips the branch bound this screen applies (bib <= 5*tau
    # is the same bag L1) and still adds the label/degree/traversal bounds.
    # One options dict feeds both the inline and the worker-side verifiers.
    verifier_options = {"bag_bounds": ("labels", "degrees")}
    verifier = Verifier(trees, tau, **verifier_options)
    deferred = (
        DeferredVerification(workers, options=verifier_options)
        if workers > 1 else None
    )

    # Branch bags come from the verifier's shared per-tree feature cache
    # (only the branch part is materialized; the rest stays lazy).
    with phase_timer(stats, "candidate_time"):
        bags = [verifier.features(k).branch_bag for k in range(len(trees))]

    budget = 5 * tau
    pruned = 0
    pairs = []
    for pos_a, pos_b in collection.iter_window_pairs(tau):
        stats.pairs_considered += 1
        i = collection.original_index(pos_a)
        j = collection.original_index(pos_b)

        with phase_timer(stats, "candidate_time"):
            bib = branch_bag_distance(bags[i], bags[j])
        if bib > budget:
            pruned += 1
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
    stats.extra["pruned_by_bib"] = pruned
    pairs.sort(key=lambda p: p.key())
    return JoinResult(pairs=pairs, stats=stats)
