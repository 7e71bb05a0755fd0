"""``repro.stream``: incremental ingestion and the warm-index search service.

The batch pipeline assumes the whole collection up front; this package
refactors it into an engine that consumes a **stream** of trees and
serves queries from the live index:

- :mod:`~repro.stream.engine` — :class:`StreamingJoin`, the incremental
  probe-then-insert join: coherent in-place insertion into the
  size-sorted order, bidirectional candidate generation (forward
  two-layer index + reverse node-twig index), and inline verification
  of each arrival's candidates.  After every arrival its results are
  bit-identical to a batch ``similarity_join`` over the ingested prefix,
  for any arrival order.
- :mod:`~repro.stream.reverse` — :class:`NodeTwigIndex`, the mirror of
  the two-layer index answering "which ingested nodes would have probed
  this subgraph?", which is what makes out-of-order arrivals filterable
  and their candidates equal the batch join's.
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
from repro.stream.reverse import NodeTwigIndex
from repro.stream.searcher import StreamSearcher
from repro.stream.service import StreamJoinService

__all__ = [
    "StreamingJoin",
    "StreamStats",
    "NodeTwigIndex",
    "StreamSearcher",
    "StreamJoinService",
]
