"""Warm-index similarity search over a live :class:`StreamingJoin`.

:class:`repro.search.SimilaritySearcher` builds its own index from a
fixed collection; :class:`StreamSearcher` *is* that searcher with the
build step removed — it binds the streaming engine's live structures
(two-layer index, interner, small pool, reverse node-twig index, sorted
order) and therefore always answers over exactly the ingested prefix,
with no rebuild and no copy.  Ingesting more trees between two queries
is the whole point: the index is warm, queries are cheap, and the
search-as-a-service scenario of the ROADMAP is one
:class:`repro.stream.service.StreamJoinService` away.

It also *improves* on the batch searcher's filtering: for collection
trees **larger** than the query, the batch searcher must fall back to
verifying the whole size window (its index only answers the
smaller-partner direction), while this one partitions the query and
probes the engine's reverse node-twig index — the same Lemma 2 filter
the streaming join applies to out-of-order arrivals.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from repro.baselines.common import Verifier
from repro.core.index import PostorderFilter, postorder_half_width
from repro.core.partition import extract_partition, max_min_size
from repro.core.subgraph import MatchSemantics
from repro.core.treecache import TreeCache
from repro.search import SimilaritySearcher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stream.engine import StreamingJoin

__all__ = ["StreamSearcher"]


class StreamSearcher(SimilaritySearcher):
    """A :class:`SimilaritySearcher` bound to a streaming engine's state.

    Construct via :meth:`StreamingJoin.searcher`.  The searcher holds
    references, not copies: queries interleaved with ingestion see every
    tree whose :meth:`~repro.stream.engine.StreamingJoin.add` completed.
    (Like the engine itself, it is not safe against *concurrent* mutation
    from another thread — the asyncio service serializes for you.)
    """

    def __init__(self, join: "StreamingJoin"):
        # Deliberately no super().__init__: the batch constructor builds
        # an index; here every structure is borrowed from the live join.
        self._join = join
        self.trees = join.trees
        self.tau = join.tau
        self.config = join.config
        self._index = join._driver.index
        self._interner = join._driver.interner
        self._min_size = join._min_size
        # A verifier of its own (the engine's counters stay the join's),
        # over the engine's record store.
        self._verifier = Verifier(self.trees, self.tau, caches=join._records)

    def _size_window(self, size: int) -> list[int]:
        collection = self._join.collection
        sizes = collection.sizes
        order = collection.order
        lo = bisect_left(sizes, size - self.tau)
        hi = bisect_right(sizes, size + self.tau)
        return order[lo:hi]

    def _upper_candidates(self, cache: TreeCache, candidates: set[int]) -> None:
        """Partners the forward probe cannot see, filtered where possible.

        Small-pool trees within the size window are taken directly (they
        are never indexed).  For partitioned collection trees *larger*
        than the query, the query is partitioned and its subgraphs probe
        the engine's reverse node-twig index — a query too small to
        partition falls back to the (at most ``3*tau``-node) trees of
        the band directly.
        """
        join = self._join
        tau = self.tau
        n = cache.size
        for i, size_i in join._driver.small_pool:
            if abs(size_i - n) <= tau:
                candidates.add(i)
        lo_size = n + 1
        hi_size = n + tau
        if lo_size > hi_size:
            return
        if n >= self._min_size:
            delta = 2 * tau + 1
            gamma = max_min_size(cache, delta)
            subgraphs = extract_partition(
                cache, -1, delta, gamma, self.config.postorder_numbering,
                check=False,
            )
            reverse = join._reverse
            mode = reverse.postorder_filter
            off = mode is PostorderFilter.OFF
            strict = self.config.semantics is MatchSemantics.PAPER
            records = join._records
            for s in subgraphs:
                half = 0 if off else postorder_half_width(mode, tau, s.rank)
                for owner, b in reverse.anchors(
                    s.twig_key, s.postorder_id, half, lo_size, hi_size
                ):
                    if owner in candidates:
                        continue
                    if s.matches_at_number(records[owner], b, strict):
                        candidates.add(owner)
        else:
            collection = join.collection
            sizes = collection.sizes
            order = collection.order
            for position in range(
                bisect_left(sizes, lo_size), bisect_right(sizes, hi_size)
            ):
                candidates.add(order[position])
