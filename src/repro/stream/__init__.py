"""``repro.stream``: incremental ingestion and the warm-index search service.

The batch pipeline assumes the whole collection up front; this package
refactors it into an engine that consumes a **stream** of trees and
serves queries from the live index:

- :mod:`~repro.stream.engine` — :class:`StreamingJoin`, the incremental
  search-then-insert join: each arrival walks the one subgraph index
  once for the earlier arrivals within ``tau`` of its size, smaller and
  larger, scans the small-tree pool, is filed in the index, and has its
  candidates verified inline.
  Its candidates are exactly those a :class:`StreamSearcher` over the
  prefix before it finds.  Under a sound filter configuration the
  results after every arrival are bit-identical to a batch
  ``similarity_join`` over the ingested prefix, for any arrival order;
  under the opt-in published window or a window on binary numbers they
  include every batch pair and may add true pairs the batch join misses.
- :mod:`~repro.stream.searcher` — :class:`StreamSearcher`, a live
  ``similarity_search`` view over the engine's warm index (no rebuild;
  :class:`repro.search.SimilaritySearcher`'s search over the streaming
  state).
- :mod:`~repro.stream.service` — :class:`StreamJoinService`, the asyncio
  front end multiplexing concurrent ingest, search, and result
  subscriptions over one engine.

Entry points: :func:`repro.api.stream_join` (generator API), the CLI's
``join --stream`` / ``stats --stream`` (newline-delimited bracket trees
or NDJSON on stdin), or the classes above directly.
"""

from repro.stream.engine import StreamingJoin, StreamStats
from repro.stream.searcher import StreamSearcher
from repro.stream.service import StreamJoinService

__all__ = [
    "StreamingJoin",
    "StreamStats",
    "StreamSearcher",
    "StreamJoinService",
]
