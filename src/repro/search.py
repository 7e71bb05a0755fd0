"""Similarity search: one query tree against a collection (paper Section 1).

A search returns all collection trees within TED ``tau`` of the query
(``TreeCollection.search(query, tau).run()``, or a reusable
``TreeCollection.searcher(tau)``).  The query's nodes probe the
partitions of every collection tree whose size is within ``tau`` of the
query's, in the one walk of the join
(:meth:`repro.core.index.InvertedSizeIndex.probe`), so the one index
answers collection trees both smaller and larger than the
query.  Trees no larger than the query are matched under the configured
semantics and window; larger ones under SAFE semantics, for which Lemma 2
holds whichever of two trees is partitioned (under PAPER semantics each
delete leading from a larger tree to the query can break 3 subgraphs, see
:mod:`repro.core.subgraph`), and a window that holds when the larger tree
is the partitioned one.  Trees too small to partition (fewer than ``2*tau
+ 1`` nodes) are never indexed; those within ``tau`` of the query's size
are taken unfiltered.

:class:`SimilaritySearcher` consumes a prepared
:class:`repro.session.TreeCollection`: the interner, records, per-tau
partitions and the fully populated index all come from the session's
``prepare(tau, config)`` artifact, so a searcher over an already-joined
collection builds nothing, and many searchers (one per tau) share one
collection's records.  :class:`repro.stream.searcher.StreamSearcher`
runs the same :meth:`SimilaritySearcher.search` over a
:class:`~repro.stream.engine.StreamingJoin`'s live index instead.

The query's record is built over a
:class:`~repro.core.intern.QueryInterner`, so labels the collection lacks
never enter its interner, and candidates are verified against that record
with a verifier over the collection's (or stream's) record store, so
collection-side views stay warm from search to search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import Verifier
from repro.core.intern import QueryInterner
from repro.core.join import PartSJConfig
from repro.core.subgraph import MatchSemantics
from repro.core.treecache import TreeCache
from repro.errors import InvalidInputTypeError
from repro.params import check_tau
from repro.session import TreeCollection
from repro.tree.node import Tree

__all__ = ["SearchHit", "SimilaritySearcher"]


@dataclass(frozen=True)
class SearchHit:
    """One search result: collection index and exact distance."""

    index: int
    distance: int


class SimilaritySearcher:
    """Reusable searcher over a prepared collection.

    Parameters
    ----------
    collection:
        The :class:`repro.session.TreeCollection` to search.  Its
        ``prepare(tau, config)`` artifacts — partitions, index, interner,
        records — are consumed, not rebuilt.
    tau:
        The TED threshold all queries will use.
    config:
        PartSJ filter configuration (defaults to the exact-safe one).

    >>> trees = [Tree.from_bracket(s) for s in ("{a{b}{c}}", "{x{y{z}}}")]
    >>> searcher = SimilaritySearcher(TreeCollection.from_trees(trees), 1)
    >>> query = Tree.from_bracket("{a{b}}")
    >>> [(h.index, h.distance) for h in searcher.search(query)]
    [(0, 1)]
    """

    def __init__(
        self,
        collection: TreeCollection,
        tau: int,
        config: Optional[PartSJConfig] = None,
    ):
        check_tau(tau)
        if not isinstance(collection, TreeCollection):
            raise InvalidInputTypeError(
                f"SimilaritySearcher searches a TreeCollection, got "
                f"{type(collection).__name__}; use "
                "TreeCollection.from_trees(trees).searcher(tau)"
            )
        prep = collection.prepare(tau, config)
        self.collection = collection
        self.trees = collection.trees
        self.tau = tau
        self.config = prep.config
        self._index = prep.search_index()
        # (index, size) of every tree too small to partition.
        self._small = [(i, self.trees[i].size) for i in prep.small]
        self._interner = collection.interner
        # Verifies over the session's records, so per-tree views stay warm
        # across searches (and joins) of the same collection.
        self._verifier = Verifier(
            self.trees, tau, caches=collection.verifier_caches
        )

    def search(self, query: Tree) -> list[SearchHit]:
        """All collection trees with ``TED(query, tree) <= tau``, by index.

        The query's record extends the collection's interner locally and
        never enters the shared record store.
        """
        tau = self.tau
        n = query.size
        config = self.config
        verifier = self._verifier
        candidates = [i for i, size in self._small if abs(size - n) <= tau]
        # Unindexed trees may have no record yet.  Build them before the
        # query's labels are numbered above the interner's: a record built
        # later could intern a label under an id the query already uses.
        # (Every indexed tree's record was built to partition it.)
        for i in candidates:
            verifier.features(i)
        cache = TreeCache(query, interner=QueryInterner(self._interner))
        self._index.probe(
            cache, config.postorder_numbering,
            config.semantics is MatchSemantics.PAPER, set(), candidates,
        )
        hits = []
        for i in sorted(candidates):
            distance = verifier.verify_record(i, cache)
            if distance is not None:
                hits.append(SearchHit(index=i, distance=distance))
        return hits
