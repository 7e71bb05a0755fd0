"""STR: the traversal-string baseline (Guha et al. [13], as adapted in [18]).

The string edit distance between the preorder label sequences of two trees
— and likewise between the postorder sequences — lower-bounds their TED
(paper Section 2, Figure 3 discussion).  STR therefore:

1. applies the size filter (sizes within ``tau``);
2. prunes the pair if its preorder string edit distance exceeds ``tau``;
3. ditto for the postorder sequences;
4. verifies survivors with exact TED.

Steps 1-3 are the "candidate generation" phase of Figures 10/12/14.  The
paper's STR computes each string edit distance with the full ``O(n^2)``
DP, which is why its candidate generation dominates its runtime at small
``tau``; ``banded=False`` reproduces that.  By default steps 2-3 run
:mod:`repro.ted.string_edit`'s threshold kernel instead, which decides
"within ``tau``?" in at most ``(tau + 1)**2`` run lookups on the
records' traversal codes.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.common import (
    JoinResult,
    JoinStats,
    SizeSortedCollection,
    Verifier,
    check_join_inputs,
)
from repro.obs.trace import phase_timer
from repro.ted.string_edit import (
    sequence_of,
    string_edit_distance,
    within_codes,
)
from repro.tree.node import Tree

__all__ = ["str_join"]


def str_join(
    trees: Sequence[Tree],
    tau: int,
    banded: bool = True,
) -> JoinResult:
    """Similarity self-join with the traversal-string filter.

    Parameters
    ----------
    banded:
        With the default ``True``, each string edit distance is decided by
        the threshold kernel of :mod:`repro.ted.string_edit` (at most
        ``(tau + 1)**2`` run lookups, early exit beyond ``tau``; the name
        comes from the banded DP that kernel replaced) — an optimization
        over the paper's STR, whose candidate-generation phase pays the
        full ``O(n^2)`` DP per window pair (the behaviour behind its
        enormous candidate-generation bars in Figure 10).
        ``banded=False`` reproduces the paper-faithful cost profile; the
        candidate and result sets are identical either way.

    >>> a = Tree.from_bracket("{a{b}{c}}")
    >>> b = Tree.from_bracket("{a{b}}")
    >>> [p.key() for p in str_join([a, b], 1).pairs]
    [(0, 1)]
    """
    check_join_inputs(trees, tau)
    stats = JoinStats(method="STR", tau=tau, tree_count=len(trees))
    stats.extra["banded"] = banded
    collection = SizeSortedCollection(trees)
    verifier = Verifier(trees, tau)

    # Traversals are read once per tree, not once per pair: views of the
    # verifier's per-tree records, as codes for the threshold kernel or
    # as label-id tuples for the full DP.
    with phase_timer(stats, "candidate_time"):
        records = [verifier.features(k) for k in range(len(trees))]
        sizes = [record.size for record in records]
        if banded:
            preorders = [record.preorder_code for record in records]
            postorders = [record.postorder_code for record in records]
        else:
            preorders = [
                sequence_of(record.preorder_code, record.size)
                for record in records
            ]
            postorders = [
                sequence_of(record.postorder_code, record.size)
                for record in records
            ]

    pruned_pre = 0
    pruned_post = 0
    pairs = []
    for pos_a, pos_b in collection.iter_window_pairs(tau):
        stats.pairs_considered += 1
        i = collection.original_index(pos_a)
        j = collection.original_index(pos_b)

        with phase_timer(stats, "candidate_time"):
            if banded:
                m, n = sizes[i], sizes[j]
                pre_ok = (
                    within_codes(preorders[i], m, preorders[j], n, tau)
                    is not None
                )
                post_ok = pre_ok and (
                    within_codes(postorders[i], m, postorders[j], n, tau)
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
        distance = verifier.verify(i, j)
        if distance is not None:
            pairs.append(collection.make_pair(pos_a, pos_b, distance))

    stats.probe_time = stats.candidate_time  # filter-only: no insert phase
    stats.ted_calls = verifier.stats_ted_calls
    stats.verify_time = verifier.stats_time
    stats.extra.update(verifier.extra_stats())
    stats.results = len(pairs)
    stats.extra["pruned_by_preorder"] = pruned_pre
    stats.extra["pruned_by_postorder"] = pruned_post
    pairs.sort(key=lambda p: p.key())
    return JoinResult(pairs=pairs, stats=stats)
