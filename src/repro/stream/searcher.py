"""Warm-index similarity search over a live :class:`StreamingJoin`.

:class:`repro.search.SimilaritySearcher` searches a prepared collection;
:class:`StreamSearcher` runs the same search over a streaming engine's
live structures instead — its index, record store, small pool and
interner — and therefore always answers over exactly the ingested prefix,
with no rebuild and no copy.  Ingesting more trees between two queries
is the whole point: the index is warm and queries are cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.common import Verifier
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
    from another thread: serialize calls to the engine and its searcher.)
    """

    def __init__(self, join: "StreamingJoin"):
        # Deliberately no super().__init__: the batch constructor prepares
        # a session; here every structure is borrowed from the live join.
        driver = join._driver
        self.trees = join.trees
        self.tau = join.tau
        self.config = join.config
        self._index = driver.index
        self._small = driver.small_pool  # grows with the stream
        self._interner = driver.interner
        # A verifier of its own (the engine's counters stay the join's),
        # over the engine's record store.
        self._verifier = Verifier(self.trees, self.tau, caches=join._records)
