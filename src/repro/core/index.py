"""The two-layer subgraph index of Section 3.4, on packed integer keys.

The join keeps one :class:`TwoLayerIndex` per tree size ``n`` (the
*inverted size index* ``I_n`` of Algorithm 1).  Within a size, the two
layers of the paper are materialized as:

1. **label layer** — a flat dictionary keyed by the *packed twig key*
   (:func:`repro.core.intern.pack_twig`): the subgraph root's
   ``(label, left, right)`` interned label ids, epsilon (``0``) for
   missing / non-member children, packed into one small integer.  One
   int hash per lookup instead of a three-string tuple hash.
2. **postorder layer** — inside each twig bucket, subgraphs are stored
   *once* (not once per window key) as ``(postorder_id, half_width,
   subgraph)`` entries kept sorted by ``postorder_id``.  A probe at
   postorder number ``p`` bisects the bucket for the superset window
   ``[p - tau, p + tau]`` and keeps entries with ``|p - p_k| <=
   half_width`` — exactly the subgraphs the paper would have filed under
   key ``p``.  With ``postorder_filter="paper"`` the half width is
   ``Delta' = tau - floor(k / 2)`` (the published derivation); with
   ``"safe"`` it is ``tau``, which is provably sufficient because a
   surviving node's general-tree postorder number shifts by at most one
   per edit operation; ``"off"`` disables the layer.

Storing each subgraph once — instead of under every integer key in
``[p_k - Delta', p_k + Delta']`` — cuts index memory and insert work by a
factor of ``2*tau + 1`` and makes the number of stored entries
independent of ``tau`` (see :attr:`TwoLayerIndex.entry_count`).

Mutation invariants
-------------------
The index is built for *interleaved* probing and insertion — the batch
join alternates the two per tree, and the streaming engine
(:mod:`repro.stream`) keeps one index alive indefinitely while trees
keep arriving.  Four invariants make that safe:

1. **Append-only buckets, lazily sorted.**  Inserts append to a bucket
   and mark it dirty; the ``O(k log k)`` re-sort (and the mirrored
   ``posts`` bisection array) happens on the bucket's next probe, never
   eagerly.  The alternating pattern thus pays one amortized sort per
   touched bucket per tree rather than ``O(k)`` shifting per insert, and
   a probe always observes every earlier insert.
2. **Shared bucket objects in the merged view.**  ``InvertedSizeIndex``
   maintains ``merged: twig_key -> {size: bucket}`` pointing at the
   *same* bucket objects as the per-size indexes — an insert through
   :meth:`InvertedSizeIndex.insert_all` is immediately visible through
   both access paths, with no copy to refresh.
3. **Append-only label ids.**  Packed twig keys embed interned label ids
   (:mod:`repro.core.intern`); the interner never reassigns an id, so a
   key filed in a bucket remains probe-able forever regardless of how
   many new labels later trees introduce.  A label first seen *after* a
   subgraph was filed gets a fresh id, whose packed keys cannot collide
   with any stored key.
4. **Monotone statistics.**  ``count`` / ``entry_count`` /
   ``total_subgraphs`` / ``total_entries`` only grow, so a streaming
   consumer may publish them mid-ingest without tearing.

Nothing is ever deleted or rewritten in place; a probe running between
two inserts sees exactly the prefix of insertions that completed, which
is what makes the warm-index search service sound.

A probe for node ``N`` (postorder number ``p``, packed twig keys of the
at most four search twigs ``(l,ll,lr)``, ``(l,ll,eps)``, ``(l,eps,lr)``,
``(l,eps,eps)``) calls :meth:`TwoLayerIndex.probe_packed` with keys the
caller computed *once per node* — the epsilon collapse of duplicate keys
is a static property of the node's children, so the join hoists key
construction out of its per-size loop (see ``partsj_join._probe_index``).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Sequence

from repro.core.intern import search_keys
from repro.core.subgraph import Subgraph
from repro.errors import InvalidParameterError

__all__ = [
    "PostorderFilter",
    "TwoLayerIndex",
    "InvertedSizeIndex",
    "postorder_half_width",
    "probe_all_packed",
]

_entry_postorder = itemgetter(0)


def postorder_half_width(
    postorder_filter: "PostorderFilter", tau: int, rank: int
) -> int:
    """Half-width ``Delta'`` of a subgraph's postorder window.

    One source of truth for the window rule, shared by the forward index
    (:meth:`TwoLayerIndex.window`) and the streaming reverse index
    (:class:`repro.stream.reverse.NodeTwigIndex`), which applies the same
    window from the subgraph side: ``tau - floor(rank / 2)`` under the
    published ``PAPER`` rule, ``tau`` under the provably-safe default,
    and unused (``0``) when the layer is ``OFF``.
    """
    if postorder_filter is PostorderFilter.PAPER:
        return max(0, tau - rank // 2)
    return tau


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


class _TwigBucket:
    """All subgraphs of one size sharing one packed twig key.

    ``entries`` holds ``(postorder_id, half_width, subgraph)`` triples;
    ``posts`` mirrors the postorder ids for bisection.  Inserts append
    and mark the bucket dirty; the sort happens lazily on the next probe.
    """

    __slots__ = ("entries", "posts", "dirty")

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, Subgraph]] = []
        self.posts: list[int] = []
        self.dirty = False

    def add(self, postorder_id: int, half: int, subgraph: Subgraph) -> None:
        self.entries.append((postorder_id, half, subgraph))
        self.dirty = True

    def _ensure_sorted(self) -> None:
        self.entries.sort(key=_entry_postorder)
        self.posts = [entry[0] for entry in self.entries]
        self.dirty = False


class TwoLayerIndex:
    """Subgraph index for the trees of one fixed size."""

    __slots__ = ("tau", "postorder_filter", "_buckets", "count", "entry_count")

    def __init__(self, tau: int, postorder_filter: PostorderFilter):
        self.tau = tau
        self.postorder_filter = postorder_filter
        self._buckets: dict[int, _TwigBucket] = {}
        self.count = 0  # subgraphs inserted
        self.entry_count = 0  # stored index entries (== count: one per subgraph)

    def window(self, subgraph: Subgraph) -> int:
        """The half-width ``Delta'`` of ``subgraph``'s postorder window."""
        # SAFE -> tau; unused for OFF.
        return postorder_half_width(self.postorder_filter, self.tau, subgraph.rank)

    def insert(self, subgraph: Subgraph) -> _TwigBucket:
        """File ``subgraph`` once under its packed twig key."""
        self.count += 1
        self.entry_count += 1
        bucket = self._buckets.get(subgraph.twig_key)
        if bucket is None:
            bucket = self._buckets[subgraph.twig_key] = _TwigBucket()
        if self.postorder_filter is PostorderFilter.OFF:
            bucket.add(subgraph.postorder_id, 0, subgraph)
        else:
            bucket.add(subgraph.postorder_id, self.window(subgraph), subgraph)
        return bucket

    def probe_packed(
        self, postorder_number: int, twig_keys: Sequence[int]
    ) -> list[Subgraph]:
        """Subgraphs that may match a node probing with these twig keys.

        ``twig_keys`` must be duplicate-free (the caller collapses epsilon
        variants once per node); each stored subgraph has exactly one twig
        key, so the result carries no duplicates.
        """
        return probe_all_packed((self,), postorder_number, twig_keys)

    def probe(
        self,
        postorder_number: int,
        label: str,
        left_label: str,
        right_label: str,
    ) -> list[Subgraph]:
        """String-label probe (compat wrapper over :meth:`probe_packed`).

        Labels are resolved against the interner of the inserted
        subgraphs; a label the interner has never seen cannot match.
        """
        # Resolve the interner through any stored subgraph: every insert
        # carries its container cache, and caches share the collection
        # interner.
        interner = None
        for bucket in self._buckets.values():
            if bucket.entries:
                interner = bucket.entries[0][2].cache.interner
                break
        if interner is None:
            return []
        lab = interner.get(label)
        if lab is None:
            return []
        # The paper's four search twigs with the epsilon collapse; an
        # un-interned child label can only ever match as epsilon.
        keys = search_keys(
            lab, interner.get(left_label) or 0, interner.get(right_label) or 0
        )
        return self.probe_packed(postorder_number, keys)

    def __len__(self) -> int:
        return self.count


def probe_all_packed(
    indexes: Sequence[TwoLayerIndex],
    postorder_number: int,
    twig_keys: Sequence[int],
) -> list[Subgraph]:
    """Probe several same-``tau`` per-size indexes with one set of keys.

    The probe loop of Algorithm 1 visits every size in ``[n - tau, n]``
    for every node; this batches those lookups into a single call per
    node so the (mostly empty) per-size results cost one dict probe each
    instead of a Python call and a list allocation.  All ``indexes`` must
    share ``tau`` and ``postorder_filter`` (they come from one
    :class:`InvertedSizeIndex`).
    """
    hits: list[Subgraph] = []
    if not indexes:
        return hits
    first = indexes[0]
    if first.postorder_filter is PostorderFilter.OFF:
        for index in indexes:
            buckets = index._buckets
            for key in twig_keys:
                bucket = buckets.get(key)
                if bucket is not None:
                    hits.extend(entry[2] for entry in bucket.entries)
        return hits
    tau = first.tau
    lo = postorder_number - tau
    hi = postorder_number + tau
    safe = first.postorder_filter is PostorderFilter.SAFE
    for index in indexes:
        buckets = index._buckets
        for key in twig_keys:
            bucket = buckets.get(key)
            if bucket is None:
                continue
            if bucket.dirty:
                bucket._ensure_sorted()
            posts = bucket.posts
            start = bisect_left(posts, lo)
            stop = bisect_right(posts, hi, start)
            if start == stop:
                continue
            entries = bucket.entries
            if safe:
                # half == tau for every entry: the bisect is the filter.
                hits.extend(entries[k][2] for k in range(start, stop))
            else:
                for k in range(start, stop):
                    pk, half, subgraph = entries[k]
                    if -half <= postorder_number - pk <= half:
                        hits.append(subgraph)
    return hits


class InvertedSizeIndex:
    """``I``: one :class:`TwoLayerIndex` per tree size, built on the fly.

    Besides the per-size indexes, a *merged* view ``twig_key -> {size:
    bucket}`` is maintained (sharing the same bucket objects, so it costs
    one pointer per bucket, not a copy).  The probe loop visits ``tau + 1``
    sizes per node and most twig keys hit nothing; the merged view
    collapses those misses into a single dictionary probe per key.
    """

    __slots__ = ("tau", "postorder_filter", "_by_size", "merged")

    def __init__(self, tau: int, postorder_filter: PostorderFilter | str = "safe"):
        if tau < 0:
            raise InvalidParameterError(f"tau must be >= 0, got {tau}")
        self.tau = tau
        self.postorder_filter = PostorderFilter.coerce(postorder_filter)
        self._by_size: dict[int, TwoLayerIndex] = {}
        self.merged: dict[int, dict[int, _TwigBucket]] = {}

    def for_size(self, size: int, create: bool = False) -> TwoLayerIndex | None:
        """The per-size index, optionally creating it."""
        index = self._by_size.get(size)
        if index is None and create:
            index = TwoLayerIndex(self.tau, self.postorder_filter)
            self._by_size[size] = index
        return index

    def insert_all(self, size: int, subgraphs: list[Subgraph]) -> None:
        """Insert a tree's partition into its size's index.

        Delegates to :meth:`TwoLayerIndex.insert` (the one owner of the
        half-width logic) and files the returned bucket in the merged
        view.
        """
        index = self.for_size(size, create=True)
        assert index is not None
        insert = index.insert
        merged = self.merged
        for subgraph in subgraphs:
            bucket = insert(subgraph)
            key = subgraph.twig_key
            by_size = merged.get(key)
            if by_size is None:
                merged[key] = {size: bucket}
            else:
                by_size[size] = bucket  # idempotent: same shared bucket

    @property
    def total_subgraphs(self) -> int:
        return sum(index.count for index in self._by_size.values())

    @property
    def total_entries(self) -> int:
        """Stored index entries across sizes — one per subgraph, tau-free."""
        return sum(index.entry_count for index in self._by_size.values())

    def sizes(self) -> list[int]:
        """Sizes that currently have a non-empty index."""
        return sorted(self._by_size)
