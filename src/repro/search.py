"""Similarity search: one query tree against a collection (paper Section 1).

``similarity_search(query, trees, tau)`` returns all collection trees within
TED ``tau`` of the query.  The implementation reuses the PartSJ machinery in
the search direction the paper describes for its index: the *query* is
partitioned into ``2*tau + 1`` subgraphs, and a collection tree can only be
similar if (a) its size is within ``tau`` of the query's and (b) when the
query is the size-wise larger side, at least one subgraph of the candidate
would survive — here evaluated directly by matching each collection tree's
partition against the query (Lemma 2 with the candidate as ``T_B1``).

:class:`SimilaritySearcher` consumes a prepared
:class:`repro.session.TreeCollection`: the sorted order, interner, tree
caches, per-tau partitions and the fully populated two-layer index all
come from the session's ``prepare(tau, config)`` artifact, so a searcher
over an already-joined collection builds nothing, and many searchers
(one per tau) share one collection's caches.  Passing a plain tree
sequence still works — a one-shot session is created behind the scenes —
and :func:`similarity_search` stays as the one-call shim over exactly
that.

The candidate-generation steps are factored into overridable hooks
(``_forward_candidates`` / ``_upper_candidates`` / ``_size_window``):
:class:`repro.stream.searcher.StreamSearcher` reuses the search loop
verbatim over a :class:`~repro.stream.engine.StreamingJoin`'s live index
— the warm-index service path, which additionally *filters* the
larger-than-query side through the reverse node-twig index instead of
this module's verify-the-window fallback.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines.common import Verifier, VerifierCaches
from repro.core.index import probe_all_packed
from repro.core.intern import search_keys
from repro.core.join import PartSJConfig
from repro.core.subgraph import MatchSemantics
from repro.core.treecache import TreeCache
from repro.params import check_tau
from repro.tree.node import Tree

__all__ = ["SearchHit", "SimilaritySearcher", "similarity_search"]


@dataclass(frozen=True)
class SearchHit:
    """One search result: collection index and exact distance."""

    index: int
    distance: int


class _QueryLocalDict:
    """A verifier-cache view that keeps one key private per search.

    Collection-tree entries read from and write through to the session's
    shared dict (so annotation/feature work accumulates across queries at
    O(1) per access), while the query's borrowed index — ``len(trees)``,
    which every search reuses — lives in a per-search slot that never
    touches shared state.  Supports exactly the operations
    :class:`~repro.baselines.common.Verifier` performs: ``get`` and item
    assignment.
    """

    __slots__ = ("_shared", "_query_index", "_query_value")

    def __init__(self, shared: dict, query_index: int):
        self._shared = shared
        self._query_index = query_index
        self._query_value = None

    def get(self, key, default=None):
        if key == self._query_index:
            value = self._query_value
            return value if value is not None else default
        return self._shared.get(key, default)

    def __setitem__(self, key, value) -> None:
        if key == self._query_index:
            self._query_value = value
        else:
            self._shared[key] = value


class _QueryLocalCaches:
    """Per-search :class:`VerifierCaches` facade over the shared ones."""

    __slots__ = ("annotated", "mirrored", "features")

    def __init__(self, shared: VerifierCaches, query_index: int):
        self.annotated = _QueryLocalDict(shared.annotated, query_index)
        self.mirrored = _QueryLocalDict(shared.mirrored, query_index)
        self.features = _QueryLocalDict(shared.features, query_index)


class SimilaritySearcher:
    """Reusable searcher over a prepared collection.

    Parameters
    ----------
    trees:
        The collection to search: a :class:`repro.session.TreeCollection`
        (its ``prepare(tau, config)`` artifacts — partitions, two-layer
        index, interner, caches — are consumed, not rebuilt) or a plain
        tree sequence (a one-shot session is created internally).
    tau:
        The TED threshold all queries will use.
    config:
        PartSJ filter configuration (defaults to the exact-safe one).
    """

    # Overridden per instance when constructed from a session; the
    # streaming subclass (which skips this constructor) inherits None and
    # keeps its historical per-search verifier behavior.
    _verifier_caches = None

    def __init__(
        self,
        trees: "Sequence[Tree]",
        tau: int,
        config: Optional[PartSJConfig] = None,
    ):
        # Deferred import: the session module imports this one.
        from repro.session import TreeCollection

        check_tau(tau)
        if isinstance(trees, TreeCollection):
            collection = trees
        else:
            collection = TreeCollection.from_trees(trees)
        prep = collection.prepare(tau, config)
        self.collection = collection
        self.trees = collection.trees
        self.tau = tau
        self.config = prep.config
        self._index = prep.search_index()
        self._min_size = prep.min_size
        self._small: list[int] = list(prep.small)  # unpartitionable trees
        # Ascending (size, original index); the batch hooks bisect it.
        self._sizes_sorted: list[tuple[int, int]] = list(
            zip(collection.sorted.sizes, collection.sorted.order)
        )
        # The collection-wide interner; queries intern into the same table.
        self._interner = collection.interner
        self._verifier_caches = collection.verifier_caches

    def _size_window(self, size: int) -> list[int]:
        """Indices of collection trees with size within ``tau`` of ``size``."""
        lo = bisect.bisect_left(self._sizes_sorted, (size - self.tau, -1))
        hi = bisect.bisect_right(self._sizes_sorted, (size + self.tau, len(self.trees)))
        return [i for _, i in self._sizes_sorted[lo:hi]]

    def _forward_candidates(self, cache: TreeCache, candidates: set[int]) -> None:
        """Probe the query's nodes against the indexed partitions.

        Finds collection trees small enough that their partition must
        leave a subgraph inside the query (``|Tj| <= |query|``, Lemma 2
        with the collection tree as the partitioned side).
        """
        tau = self.tau
        n = cache.size
        semantics: MatchSemantics = self.config.semantics  # type: ignore[assignment]
        probe_sizes = [
            self._index.for_size(size)
            for size in range(max(self._min_size, n - tau), n + 1)
        ]
        probe_sizes = [idx for idx in probe_sizes if idx is not None and idx.count]
        if not probe_sizes:
            return
        labels, left, right = cache.labels, cache.left, cache.right
        general = self.config.postorder_numbering == "general"
        general_post = cache.general_post
        strict = semantics is MatchSemantics.PAPER
        for b in range(1, n + 1):
            p = general_post[b] if general else b
            child = left[b]
            ll = labels[child] if child else 0
            child = right[b]
            rl = labels[child] if child else 0
            twig_keys = search_keys(labels[b], ll, rl)
            for subgraph in probe_all_packed(probe_sizes, p, twig_keys):
                if subgraph.owner in candidates:
                    continue
                if subgraph.matches_at_number(cache, b, strict):
                    candidates.add(subgraph.owner)

    def _upper_candidates(self, cache: TreeCache, candidates: set[int]) -> None:
        """Candidates the query-side probe cannot prune.

        For the batch searcher these are taken unfiltered from the size
        window: collection trees *larger* than the query (the roles of
        Lemma 2 are reversed and this index has no reverse layer) and
        trees too small to partition.  The streaming searcher overrides
        this with a reverse-index filter (:mod:`repro.stream.searcher`).
        """
        n = cache.size
        for i in self._size_window(n):
            if self.trees[i].size > n or self.trees[i].size < self._min_size:
                candidates.add(i)

    def search(self, query: Tree) -> list[SearchHit]:
        """All collection trees with ``TED(query, tree) <= tau``."""
        candidates: set[int] = set()
        cache = TreeCache(query, interner=self._interner)
        self._forward_candidates(cache, candidates)
        self._upper_candidates(cache, candidates)

        shared = self._verifier_caches
        query_index = len(self.trees)
        if shared is None:
            caches = None
        else:
            # The query borrows index len(trees), which every search
            # reuses — route it to a per-search slot while collection
            # entries keep reading/writing the shared dicts directly.
            caches = _QueryLocalCaches(shared, query_index)
        verifier = Verifier(list(self.trees) + [query], self.tau, caches=caches)
        hits = []
        for i in sorted(candidates):
            distance = verifier.verify(i, query_index)
            if distance is not None:
                hits.append(SearchHit(index=i, distance=distance))
        return hits


def similarity_search(
    query: Tree,
    trees: Sequence[Tree],
    tau: int,
    config: Optional[PartSJConfig] = None,
) -> list[SearchHit]:
    """One-shot similarity search (a shim: prepares a session, discards it).

    For many queries over one collection, prepare once instead:
    ``TreeCollection.from_trees(trees).searcher(tau)`` (or per-query
    ``col.search(query, tau).run()``).

    >>> trees = [Tree.from_bracket(s) for s in ("{a{b}{c}}", "{x{y{z}}}")]
    >>> [h.index for h in similarity_search(Tree.from_bracket("{a{b}}"), trees, 1)]
    [0]
    """
    from repro.api import _warn_shim
    from repro.session import TreeCollection

    _warn_shim("similarity_search")
    return (
        TreeCollection.from_trees(trees).search(query, tau, config=config).run()
    )
