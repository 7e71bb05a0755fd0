"""The two-layer subgraph index of Section 3.4 and its one probe walk.

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
   (not once per window key) as ``(postorder_id, half_width, subgraph,
   screen, screen_mask)`` entries kept sorted by ``postorder_id``.  A
   probe at postorder number ``p`` bisects the bucket for the superset
   window ``[p - tau, p + tau]`` and keeps entries with ``|p - p_k| <=
   half_width`` — exactly the subgraphs the paper would have filed under
   key ``p``.  With ``postorder_filter="paper"`` the half width is
   ``Delta' = tau - floor(k / 2)`` (the published derivation); with
   ``"safe"`` it is ``tau``, which is provably sufficient because a
   surviving node's general-tree postorder number shifts by at most one
   per edit operation; ``"off"`` disables the layer.

Storing each subgraph once — instead of under every integer key in
``[p_k - Delta', p_k + Delta']`` — cuts index memory and insert work by a
factor of ``2*tau + 1`` and makes the number of stored entries
independent of ``tau`` (``counts`` holds the subgraphs filed per size).

The one walk
------------
:meth:`InvertedSizeIndex.probe` is the probe of Algorithm 1 lines 5-12:
one walk over a tree of ``n`` nodes reads the sizes ``[n - tau, n +
tau]``.

- Sizes up to ``n`` hold the smaller partners, partitioned as the paper
  partitions them: matched under the configured semantics and window.
- Sizes above ``n`` hold the larger ones.  Under SAFE matching Lemma 2
  holds whichever of two trees is partitioned, but under PAPER matching
  one delete can break three subgraphs (see :mod:`repro.core.subgraph`),
  so these are matched under SAFE semantics.  The published ``Delta'``
  does not hold when the larger tree is the partitioned one, so their
  window is the SAFE one (half-width ``tau``) under general numbering,
  whatever the configured filter; there is none under binary numbering,
  where no constant window is sound, or when the layer is off.

The batch join and its shards probe in ascending size order, so they
never hold a larger size; the stream (every arrival, whatever its size)
and both searchers (every query) find both sides in the one walk.

Every hit first passes three necessary conditions of a match, so no
candidate is lost and none is added:

- **Node gate** — a match maps the subgraph's members one-to-one into
  the node's LC-RS subtree, so a node whose subtree has fewer nodes than
  the smallest subgraph at any probed size (``smallest``) is skipped.
- **Depth-2 key** — the node's search keys with its grandchild labels.
- **Depth-3 screen** — each entry carries the labels of the subgraph's
  member great-grandchildren and their slot mask
  (:func:`repro.core.intern.subgraph_bits`, computed with the depth-2
  key at insert); the node's own great-grandchildren
  (:func:`repro.core.intern.screen_word`, built from its children's
  grandchild bits, memoized per walk) must agree before
  :meth:`~repro.core.subgraph.Subgraph.matches_at_number` runs.

Mutation invariants
-------------------
The index is built for *interleaved* probing and insertion — the batch
join alternates the two per tree, and the streaming engine
(:mod:`repro.stream`) keeps one index alive indefinitely while trees
keep arriving.  Four invariants make that safe:

1. **Buckets sorted at insert** (:class:`PostorderBucket`).  An insert
   places its entry in postorder, after any equal postorder numbers, so
   a bucket is sorted whenever a probe reads it and a probe always
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
   mid-ingest without tearing; ``smallest`` only shrinks, so the node
   gate of a later probe never skips a node an earlier insert needs.

Nothing is ever deleted or rewritten in place; a probe running between
two inserts sees exactly the prefix of insertions that completed, which
is what makes the warm-index search service sound.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from repro.core.intern import (
    grandchild_bits,
    screen_word,
    search_keys,
    shape_of,
    subgraph_bits,
)
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
    the published ``PAPER`` rule, ``tau`` otherwise.  Only the ``PAPER``
    window of sizes up to the probing tree's reads it; the sizes above
    never do.
    """
    if postorder_filter is PostorderFilter.PAPER:
        return max(0, tau - rank // 2)
    return tau


class PostorderBucket:
    """Entries of one ``(key, tree size)`` slot, sorted by postorder.

    Every entry is a ``(postorder_id, half_width, subgraph, screen,
    screen_mask)`` tuple (the screen pair of
    :func:`repro.core.intern.subgraph_bits`).  :meth:`add` inserts it at
    its place in postorder, after the entries of equal postorder, so
    ``entries`` is always sorted and ``posts`` always holds their
    postorder numbers for the probe to bisect.
    """

    __slots__ = ("posts", "entries")

    def __init__(self) -> None:
        self.posts: list[int] = []
        self.entries: list[tuple] = []

    def add(self, entry: tuple) -> None:
        posts = self.posts
        k = bisect_right(posts, entry[0])
        posts.insert(k, entry[0])
        self.entries.insert(k, entry)


class InvertedSizeIndex:
    """``I``: the partitions of every indexed tree, by depth-2 key and size.

    ``merged`` maps ``depth-2 key -> {tree size: PostorderBucket}``,
    ``shapes`` maps ``twig key -> ((shape_bits, mask), ...)`` (the shapes
    of the depth-2 keys filed under that twig,
    :func:`repro.core.intern.shape_of`), ``counts`` maps ``tree size ->
    subgraphs filed`` and ``smallest`` maps ``tree size -> member count
    of the smallest subgraph filed``.
    """

    __slots__ = (
        "tau", "postorder_filter", "merged", "shapes", "counts", "smallest",
    )

    def __init__(self, tau: int, postorder_filter: PostorderFilter | str = "safe"):
        self.tau = check_tau(tau)
        self.postorder_filter = PostorderFilter.coerce(postorder_filter)
        self.merged: dict[int, dict[int, PostorderBucket]] = {}
        self.shapes: dict[int, tuple[tuple[int, int], ...]] = {}
        self.counts: dict[int, int] = {}
        self.smallest: dict[int, int] = {}

    def insert_all(self, size: int, subgraphs: list[Subgraph]) -> None:
        """File a tree's partition once per subgraph under its depth-2 key,
        with its depth-3 screen."""
        mode = self.postorder_filter
        tau = self.tau
        merged = self.merged
        shapes = self.shapes
        for subgraph in subgraphs:
            cache = subgraph.cache
            bits, screen, screen_mask = subgraph_bits(
                cache.labels, cache.left, cache.right,
                subgraph.root_number, subgraph.member_bits,
            )
            key = subgraph.twig_key | bits
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
                screen,
                screen_mask,
            ))
        self.counts[size] = self.counts.get(size, 0) + len(subgraphs)
        least = min(subgraph.size for subgraph in subgraphs)
        self.smallest[size] = min(self.smallest.get(size, least), least)

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
        numbering: str,
        strict: bool,
        checked: set[int],
        candidates: list[int],
    ) -> tuple[int, int, int, int]:
        """Gather the indexed trees of size ``[n - tau, n + tau]`` that may
        be within ``tau`` of ``cache``'s ``n``-node tree (Algorithm 1
        lines 5-12, both sides at once).

        Sizes up to ``n`` are matched under the configured semantics
        (``strict`` selects the paper's) and window; sizes above ``n``
        under the larger-side rule (see the module docstring).  Every
        node ``b`` whose LC-RS subtree is at least as large as the
        smallest subgraph filed at any probed size probes at its
        postorder number (general or binary, per ``numbering``) with its
        at most four search keys (:func:`repro.core.intern.search_keys`),
        each combined with the node's grandchild labels in every shape
        filed under it.  A hit ``s`` (a subgraph whose depth-2 key equals
        one of those, within its size's window) is skipped if ``s.owner``
        is already in ``checked``, the partners this probing tree has
        matched so far.  Otherwise it is tested: first its depth-3 screen
        against the node's screen word, then
        :meth:`Subgraph.matches_at_number`.  A match adds ``s.owner`` to
        ``checked`` and to ``candidates``.

        The loop reads only the record's flat arrays and inserts nothing,
        so the buckets it visits are frozen for its duration.  Returns
        ``(probe_hits, match_tests, dedup_skips, screened)``: the tests
        include the ``screened`` ones, the hits the screen rejected.
        """
        n = cache.size
        tau = self.tau
        smallest = self.smallest
        # (size, strict, window) per probed size that holds subgraphs;
        # window 0 none, 1 [p - tau, p + tau], 2 that and each entry's
        # published half width.
        mode = self.postorder_filter
        if mode is PostorderFilter.OFF:
            below = above = 0
        else:
            below = 2 if mode is PostorderFilter.PAPER else 1
            above = 1 if numbering == "general" else 0
        plan = [
            (size, strict, below) if size <= n else (size, False, above)
            for size in range(n - tau, n + tau + 1)
            if size in smallest
        ]
        if not plan:
            return 0, 0, 0, 0
        # A match maps the subgraph's members one-to-one into the node's
        # LC-RS subtree, so a smaller subtree matches nothing probed.
        gate = min(smallest[size] for size, _, _ in plan)
        merged = self.merged
        shapes = self.shapes
        labels = cache.labels
        left = cache.left
        right = cache.right
        positions = cache.general_post if numbering == "general" else range(n + 1)
        subtree = [0] * (n + 1)  # LC-RS subtree sizes, filled as b ascends
        # Grandchild bits per node, built on first use; a missing child
        # (0) has none.
        grandchild_memo = [-1] * (n + 1)
        grandchild_memo[0] = 0
        probe_hits = 0
        match_tests = 0
        dedup_skips = 0
        screened = 0
        for b in range(1, n + 1):
            l = left[b]
            r = right[b]
            size_b = subtree[b] = subtree[l] + subtree[r] + 1
            if size_b < gate:
                continue
            grandchildren = -1  # built once a search key has a shape filed
            word = -1  # the screen word, built at the node's first test
            # labels[0] is epsilon's id 0, so a missing child reads as 0.
            for twig_key in search_keys(labels[b], labels[l], labels[r]):
                filed = shapes.get(twig_key)
                if filed is None:
                    continue
                if grandchildren < 0:
                    grandchildren = grandchild_memo[b] = grandchild_bits(
                        labels, left, right, b
                    )
                    p = positions[b]
                    lo = p - tau
                    hi = p + tau
                for shape_bits, mask in filed:
                    by_size = merged.get(
                        twig_key | shape_bits | (grandchildren & mask)
                    )
                    if by_size is None:
                        continue
                    for size, strict_size, window in plan:
                        bucket = by_size.get(size)
                        if bucket is None:
                            continue
                        entries = bucket.entries
                        if window:
                            posts = bucket.posts
                            start = bisect_left(posts, lo)
                            if start == len(posts) or posts[start] > hi:
                                continue  # an empty window
                            stop = bisect_right(posts, hi, start)
                        else:
                            start, stop = 0, len(entries)
                        for k in range(start, stop):
                            pk, half, subgraph, screen, screen_mask = entries[k]
                            if window == 2 and not -half <= p - pk <= half:
                                continue
                            probe_hits += 1
                            j = subgraph.owner
                            if j in checked:
                                dedup_skips += 1
                                continue
                            match_tests += 1
                            if word < 0:
                                gl = grandchild_memo[l]
                                if gl < 0:
                                    gl = grandchild_memo[l] = grandchild_bits(
                                        labels, left, right, l
                                    )
                                gr = grandchild_memo[r]
                                if gr < 0:
                                    gr = grandchild_memo[r] = grandchild_bits(
                                        labels, left, right, r
                                    )
                                word = screen_word(gl, gr)
                            if word & screen_mask != screen:
                                screened += 1
                                continue
                            if subgraph.matches_at_number(cache, b, strict_size):
                                checked.add(j)
                                candidates.append(j)
        return probe_hits, match_tests, dedup_skips, screened
