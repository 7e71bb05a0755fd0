"""The two-layer subgraph index of Section 3.4 and its one forward probe.

One :class:`InvertedSizeIndex` holds the partitions of every indexed tree
(the *inverted size index* ``I`` of Algorithm 1).  The two layers of the
paper are materialized across all sizes at once:

1. **label layer** — ``merged`` maps a subgraph's *depth-2 key* to
   ``{tree size: bucket}``.  The paper files a subgraph under its packed
   root twig (:func:`repro.core.intern.pack_twig`: the root's ``(label,
   left, right)`` interned ids, epsilon (``0``) for missing / non-member
   children); the depth-2 key (layout in :mod:`repro.core.intern`) adds
   the labels of the subgraph's member grandchildren, the LC-RS children
   of its member children.  ``shapes`` maps each twig key to the shapes
   filed under it: which of the four grandchild slots their keys
   constrain (:func:`repro.core.intern.shape_of`).  A probe node builds
   its grandchild bits once and looks up one key per pair of search key
   and filed shape, so a subgraph whose member grandchildren differ from
   the node's is never a hit.  A subgraph that matches at the node
   agrees with it on those labels, so the finer key loses no candidate.
2. **postorder layer** — inside each bucket, subgraphs are stored *once*
   (not once per window key) as ``(postorder_id, half_width, subgraph)``
   entries kept sorted by ``postorder_id``.  A probe at postorder number
   ``p`` bisects the bucket for the superset window ``[p - tau, p +
   tau]`` and keeps entries with ``|p - p_k| <= half_width`` — exactly
   the subgraphs the paper would have filed under key ``p``.  With
   ``postorder_filter="paper"`` the half width is ``Delta' = tau -
   floor(k / 2)`` (the published derivation); with ``"safe"`` it is
   ``tau``, which is provably sufficient because a surviving node's
   general-tree postorder number shifts by at most one per edit
   operation; ``"off"`` disables the layer.

Storing each subgraph once — instead of under every integer key in
``[p_k - Delta', p_k + Delta']`` — cuts index memory and insert work by a
factor of ``2*tau + 1`` and makes the number of stored entries
independent of ``tau`` (``counts`` holds the subgraphs filed per size).

:meth:`InvertedSizeIndex.probe` is the one forward probe (Algorithm 1
lines 5-12): a tree of ``n`` nodes probes the sizes ``[n - tau, n]``
below it, under the configured semantics and window.  The batch join,
its shards and the stream run it for every tree (see
:class:`repro.core.join.ShardDriver`), both similarity searchers for
every query (:mod:`repro.search`).  Under SAFE matching Lemma 2 holds
whichever of two trees is partitioned, so the same loop also finds the
indexed trees *larger* than a probing tree, sizes ``[n + 1, n + tau]``:
:meth:`InvertedSizeIndex.probe_larger` holds that rule (SAFE matching,
and a window that holds when the larger tree is the partitioned one).
The searchers run it for every query, and the stream for every arrival,
to find the earlier arrivals larger than it.

Mutation invariants
-------------------
The index is built for *interleaved* probing and insertion — the batch
join alternates the two per tree, and the streaming engine
(:mod:`repro.stream`) keeps one index alive indefinitely while trees
keep arriving.  Four invariants make that safe:

1. **Append-only buckets, lazily sorted** (:class:`PostorderBucket`).
   Inserts append to a bucket and mark it dirty; the ``O(k log k)``
   re-sort happens on the bucket's next probe, never eagerly.  The
   alternating pattern thus pays one amortized sort per touched bucket
   per tree rather than ``O(k)`` shifting per insert, and a probe always
   observes every earlier insert.
2. **Append-only label ids.**  Index keys embed interned label ids
   (:mod:`repro.core.intern`); the interner never reassigns an id, so a
   key filed in a bucket remains probe-able forever regardless of how
   many new labels later trees introduce.  A label first seen *after* a
   subgraph was filed gets a fresh id, whose packed keys cannot collide
   with any stored key.
3. **Append-only shape lists.**  An insert that files the first subgraph
   under a depth-2 key appends that key's shape to its twig key's
   ``shapes`` entry if the shape is new (a tuple, replaced by one that
   extends it), before any probe can look for the key; shapes are never
   removed or reordered.
4. **Monotone statistics.**  ``counts`` / ``total_subgraphs`` /
   ``total_entries`` only grow, so a streaming consumer may publish them
   mid-ingest without tearing.

Nothing is ever deleted or rewritten in place; a probe running between
two inserts sees exactly the prefix of insertions that completed, which
is what makes the warm-index search service sound.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.core.intern import grandchild_bits, search_keys, shape_of
from repro.core.subgraph import Subgraph
from repro.errors import InvalidParameterError
from repro.params import check_tau

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.treecache import TreeCache

__all__ = [
    "PostorderFilter",
    "PostorderBucket",
    "InvertedSizeIndex",
    "postorder_half_width",
]

_entry_postorder = itemgetter(0)


class PostorderFilter(enum.Enum):
    """Window rule for the postorder layer."""

    PAPER = "paper"  # Delta' = tau - floor(k/2): the published scheme
    SAFE = "safe"  # Delta' = tau: provably no false negatives
    OFF = "off"  # label layer only

    @classmethod
    def coerce(cls, value: "PostorderFilter | str") -> "PostorderFilter":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise InvalidParameterError(
                f"unknown postorder filter {value!r}; use 'paper', 'safe' or 'off'"
            ) from None


def postorder_half_width(
    postorder_filter: PostorderFilter, tau: int, rank: int
) -> int:
    """Half-width ``Delta'`` of a subgraph's postorder window.

    Computed when the subgraph is filed: ``tau - floor(rank / 2)`` under
    the published ``PAPER`` rule, ``tau`` otherwise.  Only a probe under
    the ``PAPER`` window reads it; :meth:`InvertedSizeIndex.probe_larger`
    never does.
    """
    if postorder_filter is PostorderFilter.PAPER:
        return max(0, tau - rank // 2)
    return tau


class PostorderBucket:
    """Entries of one ``(key, tree size)`` slot, sorted lazily by postorder.

    Every entry is a ``(postorder_id, half_width, subgraph)`` tuple.
    ``add`` appends and marks the bucket dirty; :meth:`span` sorts it
    (stably) by postorder on first use after an append.
    """

    __slots__ = ("entries", "posts", "dirty")

    def __init__(self) -> None:
        self.entries: list[tuple] = []
        self.posts: list[int] = []  # entries' postorder numbers, for bisection
        self.dirty = False

    def add(self, entry: tuple) -> None:
        self.entries.append(entry)
        self.dirty = True

    def span(self, lo: int, hi: int) -> tuple[int, int]:
        """``(start, stop)`` of the entries with postorder in ``[lo, hi]``."""
        if self.dirty:
            self.entries.sort(key=_entry_postorder)
            self.posts = [entry[0] for entry in self.entries]
            self.dirty = False
        posts = self.posts
        start = bisect_left(posts, lo)
        return start, bisect_right(posts, hi, start)


class InvertedSizeIndex:
    """``I``: the partitions of every indexed tree, by depth-2 key and size.

    ``merged`` maps ``depth-2 key -> {tree size: PostorderBucket}``,
    ``shapes`` maps ``twig key -> ((shape_bits, mask), ...)`` (the shapes
    of the depth-2 keys filed under that twig,
    :func:`repro.core.intern.shape_of`) and ``counts`` maps ``tree size
    -> subgraphs filed``.
    """

    __slots__ = ("tau", "postorder_filter", "merged", "shapes", "counts")

    def __init__(self, tau: int, postorder_filter: PostorderFilter | str = "safe"):
        self.tau = check_tau(tau)
        self.postorder_filter = PostorderFilter.coerce(postorder_filter)
        self.merged: dict[int, dict[int, PostorderBucket]] = {}
        self.shapes: dict[int, tuple[tuple[int, int], ...]] = {}
        self.counts: dict[int, int] = {}

    def insert_all(self, size: int, subgraphs: list[Subgraph]) -> None:
        """File a tree's partition once per subgraph under its depth-2 key."""
        mode = self.postorder_filter
        tau = self.tau
        merged = self.merged
        shapes = self.shapes
        for subgraph in subgraphs:
            cache = subgraph.cache
            key = subgraph.twig_key | grandchild_bits(
                cache.labels, cache.left, cache.right,
                subgraph.root_number, subgraph.member_bits,
            )
            by_size = merged.get(key)
            if by_size is None:
                by_size = merged[key] = {}
                filed = shapes.get(subgraph.twig_key, ())
                shape = shape_of(key)
                if shape not in filed:
                    shapes[subgraph.twig_key] = filed + (shape,)
            bucket = by_size.get(size)
            if bucket is None:
                bucket = by_size[size] = PostorderBucket()
            bucket.add((
                subgraph.postorder_id,
                postorder_half_width(mode, tau, subgraph.rank),
                subgraph,
            ))
        self.counts[size] = self.counts.get(size, 0) + len(subgraphs)

    @property
    def total_subgraphs(self) -> int:
        return sum(self.counts.values())

    @property
    def total_entries(self) -> int:
        """Stored index entries across sizes — one per subgraph, tau-free."""
        return self.total_subgraphs

    def probe(
        self,
        cache: "TreeCache",
        lo_size: int,
        hi_size: int,
        numbering: str,
        strict: bool,
        checked: set[int],
        candidates: list[int],
    ) -> tuple[int, int, int]:
        """Gather the indexed trees of size ``[lo_size, hi_size]`` that may
        be within ``tau`` of ``cache``'s tree (Algorithm 1 lines 5-12).

        Every node ``b`` probes at its postorder number (general or
        binary, per ``numbering``) with its at most four search keys
        (:func:`repro.core.intern.search_keys`), each combined with the
        node's grandchild labels in every shape filed under it.  A hit
        ``s`` (a subgraph whose depth-2 key equals one of those, within
        the configured postorder window) is tested with
        :meth:`Subgraph.matches_at_number` (``strict`` selects the
        paper's semantics) unless ``s.owner`` is already in ``checked``,
        the partners this probing tree has matched so far; a match adds
        ``s.owner`` to ``checked`` and to ``candidates``.

        The loop reads only the record's flat arrays and inserts nothing,
        so the buckets it visits are frozen for its duration.  Returns
        ``(probe_hits, match_tests, dedup_skips)``.
        """
        return self._probe(
            cache, lo_size, hi_size, numbering, strict,
            self.postorder_filter, checked, candidates,
        )

    def probe_larger(
        self,
        cache: "TreeCache",
        numbering: str,
        checked: set[int],
        candidates: list[int],
    ) -> tuple[int, int, int]:
        """:meth:`probe` the sizes ``[n + 1, n + tau]`` above ``cache``'s
        ``n``-node tree: the indexed trees *larger* than it.

        Here the larger tree is the partitioned one.  Lemma 2 holds that
        way round only under SAFE matching (under PAPER matching one
        delete can break three subgraphs, see
        :mod:`repro.core.subgraph`), so every hit is matched under SAFE
        semantics.  The window is chosen once per call: the SAFE window
        (half-width ``tau``) under general numbering, whatever the
        configured filter, because the published ``Delta'`` does not hold
        when the larger tree is the partitioned one; no window under
        binary numbering, where no constant window is sound, or when the
        layer is off.  Same arguments and return value as :meth:`probe`.
        """
        if self.postorder_filter is PostorderFilter.OFF or numbering != "general":
            window = PostorderFilter.OFF
        else:
            window = PostorderFilter.SAFE
        n = cache.size
        return self._probe(
            cache, n + 1, n + self.tau, numbering, False, window,
            checked, candidates,
        )

    def _probe(
        self,
        cache: "TreeCache",
        lo_size: int,
        hi_size: int,
        numbering: str,
        strict: bool,
        window: PostorderFilter,
        checked: set[int],
        candidates: list[int],
    ) -> tuple[int, int, int]:
        """The loop of :meth:`probe` and :meth:`probe_larger`, under
        ``window``'s postorder rule (entries carry the configured half
        width, which only ``PAPER`` reads)."""
        counts = self.counts
        sizes = [size for size in range(lo_size, hi_size + 1) if size in counts]
        if not sizes:
            return 0, 0, 0
        merged = self.merged
        shapes = self.shapes
        off = window is PostorderFilter.OFF
        strict_window = window is PostorderFilter.PAPER
        tau = self.tau
        n = cache.size
        labels = cache.labels
        left = cache.left
        right = cache.right
        positions = cache.general_post if numbering == "general" else range(n + 1)
        probe_hits = 0
        match_tests = 0
        dedup_skips = 0
        for b in range(1, n + 1):
            p = positions[b]
            lo = p - tau
            hi = p + tau
            grandchildren = -1  # built once a search key has a shape filed
            # labels[0] is epsilon's id 0, so a missing child reads as 0.
            for twig_key in search_keys(labels[b], labels[left[b]], labels[right[b]]):
                filed = shapes.get(twig_key)
                if filed is None:
                    continue
                if grandchildren < 0:
                    grandchildren = grandchild_bits(labels, left, right, b)
                for shape_bits, mask in filed:
                    by_size = merged.get(
                        twig_key | shape_bits | (grandchildren & mask)
                    )
                    if by_size is None:
                        continue
                    for size in sizes:
                        bucket = by_size.get(size)
                        if bucket is None:
                            continue
                        entries = bucket.entries
                        if off:
                            start, stop = 0, len(entries)
                        else:
                            start, stop = bucket.span(lo, hi)
                        for k in range(start, stop):
                            pk, half, subgraph = entries[k]
                            if strict_window and not -half <= p - pk <= half:
                                continue
                            probe_hits += 1
                            j = subgraph.owner
                            if j in checked:
                                dedup_skips += 1
                                continue
                            match_tests += 1
                            if subgraph.matches_at_number(cache, b, strict):
                                checked.add(j)
                                candidates.append(j)
        return probe_hits, match_tests, dedup_skips
