"""STR: the traversal-string baseline (Guha et al. [13], as adapted in [18]).

The string edit distance between the preorder label sequences of two trees
— and likewise between the postorder sequences — lower-bounds their TED
(paper Section 2, Figure 3 discussion).  STR therefore:

1. applies the size filter (sizes within ``tau``);
2. computes the *banded* preorder string edit distance with threshold
   ``tau`` and prunes if it exceeds ``tau``;
3. ditto for the postorder sequences;
4. verifies survivors with exact TED.

Steps 1-3 are the "candidate generation" phase of Figures 10/12/14; the
banded computation (``O(tau * n)`` per pair) is why STR's candidate
generation dominates its runtime at small ``tau``, exactly as the paper
observes.
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
from repro.ted.string_edit import string_edit_distance, string_edit_within
from repro.tree.node import Tree

__all__ = ["str_join"]


def str_join(
    trees: Sequence[Tree],
    tau: int,
    banded: bool = True,
    workers: int = 1,
) -> JoinResult:
    """Similarity self-join with the traversal-string filter.

    Parameters
    ----------
    banded:
        With the default ``True``, string edit distances are computed with
        the ``O(tau * n)`` banded early-exit DP — an optimization over the
        paper's STR, whose candidate-generation phase pays the full
        ``O(n^2)`` DP per window pair (the behaviour behind its enormous
        candidate-generation bars in Figure 10).  ``banded=False``
        reproduces the paper-faithful cost profile; the candidate and
        result sets are identical either way.
    workers:
        With ``workers > 1`` candidates are verified in parallel through
        :func:`repro.parallel.verify_pool.parallel_verify` (identical
        pairs and distances).

    >>> a = Tree.from_bracket("{a{b}{c}}")
    >>> b = Tree.from_bracket("{a{b}}")
    >>> [p.key() for p in str_join([a, b], 1).pairs]
    [(0, 1)]
    """
    check_join_inputs(trees, tau)
    stats = JoinStats(method="STR", tau=tau, tree_count=len(trees))
    stats.extra["banded"] = banded
    collection = SizeSortedCollection(trees)
    # STR candidates already passed the banded pre/postorder string filter,
    # so the verifier skips its postorder bound (its preorder alignment
    # still runs, for the certificate, and never rejects).  One options
    # dict feeds both the inline verifier and the worker-side ones, so the
    # serial and parallel paths can never run different bound pipelines.
    verifier_options = {"traversal_bound": False, "bag_bounds": True}
    verifier = Verifier(trees, tau, **verifier_options)
    deferred = (
        DeferredVerification(workers, options=verifier_options)
        if workers > 1 else None
    )

    # Traversal strings are computed once per tree, not once per pair:
    # label-id views of the verifier's per-tree records.
    with phase_timer(stats, "candidate_time"):
        records = [verifier.features(k) for k in range(len(trees))]
        preorders = [record.preorder for record in records]
        postorders = [record.postorder for record in records]

    pruned_pre = 0
    pruned_post = 0
    pairs = []
    for pos_a, pos_b in collection.iter_window_pairs(tau):
        stats.pairs_considered += 1
        i = collection.original_index(pos_a)
        j = collection.original_index(pos_b)

        with phase_timer(stats, "candidate_time"):
            if banded:
                pre_ok = (
                    string_edit_within(preorders[i], preorders[j], tau)
                    is not None
                )
                post_ok = pre_ok and (
                    string_edit_within(postorders[i], postorders[j], tau)
                    is not None
                )
            else:
                pre_ok = string_edit_distance(preorders[i], preorders[j]) <= tau
                post_ok = pre_ok and (
                    string_edit_distance(postorders[i], postorders[j]) <= tau
                )
        if not pre_ok:
            pruned_pre += 1
            continue
        if not post_ok:
            pruned_post += 1
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
    stats.extra["pruned_by_preorder"] = pruned_pre
    stats.extra["pruned_by_postorder"] = pruned_post
    pairs.sort(key=lambda p: p.key())
    return JoinResult(pairs=pairs, stats=stats)
