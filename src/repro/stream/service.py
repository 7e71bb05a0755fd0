"""Asyncio front end: concurrent ingest + search over one warm index.

:class:`StreamJoinService` wraps a :class:`~repro.stream.engine.StreamingJoin`
for the search-as-a-service scenario: many coroutines — ingest producers,
search clients, result subscribers — multiplex over one engine and one
warm index.  The CPU-bound engine calls run in worker threads
(``asyncio.to_thread``) so the event loop stays responsive, and a single
``asyncio.Lock`` serializes them: the engine's structures are
single-writer (lazily sorted buckets, shared interner), and with the
GIL-bound workload a reader/writer split would buy nothing while
complicating the coherence story.  Fairness is the lock's FIFO ordering —
a search submitted between two ingests sees exactly the first ingest's
prefix.

Result pairs fan out to subscribers as they are verified.
:meth:`subscribe` returns an async iterator fed by a per-subscriber
queue, **bounded** on request: ``subscribe(maxsize=N, overflow=...)``
with overflow policy ``"block"`` (backpressure: publishing awaits until
the subscriber consumes) or ``"drop_oldest"`` (the oldest buffered pair
is discarded and counted in the subscription's ``dropped`` counter — a
slow consumer costs bounded memory, never stalls ingestion, and can see
exactly what it missed).  Subscriptions end at :meth:`close`.

Failure semantics
-----------------
- ``ingest``/``ingest_many`` accept ``Tree`` objects or bracket strings;
  a malformed item raises :class:`~repro.errors.IngestError` with
  ``on_error="fail"`` (the constructor default) or is *quarantined* —
  dropped, counted in ``StreamStats.quarantined_trees`` — with
  ``on_error="skip"``.
- ``ingest``/``search``/``flush`` after :meth:`close` raise a clear
  :class:`~repro.errors.ReproError` instead of operating on a closed
  engine; ``results``/``stats`` stay readable.
- :meth:`close` is idempotent and safe under concurrency: every caller
  awaits the one real shutdown, and active subscriptions always receive
  their end-of-stream sentinel (forced past a full bounded queue by
  dropping the oldest buffered item), so no subscriber hangs.

Usage::

    async with StreamJoinService(tau=2) as service:
        asyncio.create_task(producer(service))   # service.ingest(tree)
        hits = await service.search(query)       # mid-ingest, warm index
        async for pair in service.subscribe():   # verified (i, j, distance)
            ...
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Iterable, Optional, Union

from repro.baselines.common import JoinPair
from repro.core.join import PartSJConfig
from repro.errors import IngestError, InvalidParameterError, ReproError
from repro.obs.metrics import publish_stream_stats
from repro.search import SearchHit
from repro.stream.engine import StreamingJoin, StreamStats
from repro.tree.bracket import parse_bracket
from repro.tree.node import Tree

__all__ = ["StreamJoinService", "Subscription"]

_CLOSED = object()  # queue sentinel ending every subscription

_OVERFLOW_POLICIES = ("block", "drop_oldest")


class Subscription:
    """One subscriber's bounded view of the verified-pair stream.

    An async iterator (``async for pair in subscription``) over a
    per-subscriber queue.  With ``maxsize > 0`` the queue is bounded and
    ``overflow`` decides what publishing does when it is full:
    ``"block"`` awaits (backpressure on the publisher), ``"drop_oldest"``
    discards the oldest buffered pair and increments :attr:`dropped`.
    """

    def __init__(self, maxsize: int, overflow: str):
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self._overflow = overflow
        self._ended = False
        self.dropped = 0

    def __aiter__(self) -> "Subscription":
        return self

    async def __anext__(self) -> JoinPair:
        if self._ended:
            raise StopAsyncIteration
        item = await self._queue.get()
        if item is _CLOSED:
            self._ended = True
            raise StopAsyncIteration
        return item

    async def _deliver(self, pair: JoinPair) -> None:
        if self._overflow == "block":
            await self._queue.put(pair)
            return
        while True:
            try:
                self._queue.put_nowait(pair)
                return
            except asyncio.QueueFull:
                try:
                    self._queue.get_nowait()
                    self.dropped += 1
                except asyncio.QueueEmpty:  # pragma: no cover - race-free loop
                    pass

    def _end(self) -> None:
        """Enqueue the end-of-stream sentinel, unconditionally.

        Even under the ``block`` policy the sentinel must land — a
        full queue sheds its oldest item instead, so :meth:`close`
        can never deadlock behind a stalled consumer.
        """
        while True:
            try:
                self._queue.put_nowait(_CLOSED)
                return
            except asyncio.QueueFull:
                try:
                    self._queue.get_nowait()
                    self.dropped += 1
                except asyncio.QueueEmpty:  # pragma: no cover
                    pass


class StreamJoinService:
    """Concurrent ingest / search / subscribe over one streaming join."""

    def __init__(
        self,
        tau: int,
        config: Optional[PartSJConfig] = None,
        on_error: str = "fail",
        wal: Optional[str] = None,
        wal_fsync: str = "batch",
        tracer=None,
        registry=None,
    ):
        if on_error not in ("fail", "skip"):
            raise InvalidParameterError(
                f"on_error must be 'fail' or 'skip', got {on_error!r}"
            )
        # wal / wal_fsync pass straight to the engine: arrivals are
        # logged before they mutate state, and every service flush is a
        # WAL sync point (see repro.persist.wal for the policy promises).
        # tracer is handed to the engine too (flush / WAL spans);
        # registry receives the repro_stream_* metrics fan-out — every
        # stats() call and the final close() publish a snapshot into it
        # (None = the process-wide default registry).
        self._join = StreamingJoin(
            tau, config=config, wal=wal, wal_fsync=wal_fsync, tracer=tracer,
        )
        self._registry = registry
        self._lock = asyncio.Lock()
        self._subscribers: list[Subscription] = []
        self._on_error = on_error
        self._closed = False
        self._close_done: Optional[asyncio.Event] = None

    @property
    def join(self) -> StreamingJoin:
        """The underlying engine (read-only introspection; use the async
        methods for anything that runs engine code)."""
        return self._join

    def _require_open(self, operation: str) -> None:
        if self._closed:
            raise ReproError(
                f"StreamJoinService is closed; {operation}() is no longer "
                "available (results() and stats() remain readable)"
            )

    def _coerce(self, tree: Union[Tree, str]) -> Optional[Tree]:
        """Parse/validate one ingest item under the ``on_error`` policy.

        Returns ``None`` for a quarantined (skipped) item.
        """
        try:
            if isinstance(tree, str):
                return parse_bracket(tree)
            if not isinstance(tree, Tree):
                raise IngestError(
                    f"ingest expects a Tree or bracket string, got "
                    f"{type(tree).__name__}"
                )
            return tree
        except ReproError as exc:
            if self._on_error == "skip":
                self._join.record_quarantine(exc)
                return None
            if isinstance(exc, IngestError):
                raise
            raise IngestError(f"malformed ingest item: {exc}") from exc

    async def _publish(self, pairs: list[JoinPair]) -> None:
        for subscription in list(self._subscribers):
            for pair in pairs:
                await subscription._deliver(pair)

    async def ingest(self, tree: Union[Tree, str]) -> list[JoinPair]:
        """Ingest one tree (or bracket string); returns (and publishes)
        pairs verified now.  Malformed items follow the ``on_error``
        policy: ``fail`` raises :class:`~repro.errors.IngestError`,
        ``skip`` quarantines (see :class:`StreamStats`)."""
        self._require_open("ingest")
        parsed = self._coerce(tree)
        if parsed is None:
            return []
        async with self._lock:
            pairs = await asyncio.to_thread(self._join.add, parsed)
        await self._publish(pairs)
        return pairs

    async def ingest_many(
        self, trees: Iterable[Union[Tree, str]]
    ) -> list[JoinPair]:
        """Ingest several trees under one lock hold (same ``on_error``
        handling as :meth:`ingest`, applied per item)."""
        self._require_open("ingest_many")
        parsed = [tree for tree in map(self._coerce, trees) if tree is not None]
        async with self._lock:
            pairs = await asyncio.to_thread(self._join.add_many, parsed)
        await self._publish(pairs)
        return pairs

    async def search(self, query: Tree) -> list[SearchHit]:
        """``similarity_search`` against the warm index, mid-ingest."""
        self._require_open("search")
        async with self._lock:
            searcher = self._join.searcher()
            return await asyncio.to_thread(searcher.search, query)

    async def flush(self) -> list[JoinPair]:
        """Sync the engine's WAL (the durability point); returns ``[]``,
        since every pair was already returned by the ingest that found it."""
        self._require_open("flush")
        async with self._lock:
            return await asyncio.to_thread(self._join.flush)

    async def results(self) -> list[JoinPair]:
        """All verified pairs so far, in canonical order."""
        async with self._lock:
            return self._join.results()

    async def stats(self) -> StreamStats:
        """A :class:`StreamStats` snapshot, also fanned out as metrics.

        Every call publishes the snapshot into the metrics registry
        (:func:`repro.obs.publish_stream_stats`) — scraping the service
        is ``await stats()`` then ``render_prometheus(registry)``.
        """
        async with self._lock:
            snapshot = self._join.stats()
        publish_stream_stats(snapshot, registry=self._registry)
        return snapshot

    def subscribe(
        self, maxsize: int = 0, overflow: str = "block"
    ) -> AsyncIterator[JoinPair]:
        """Async iterator over verified pairs from this moment on.

        ``maxsize == 0`` (default) buffers without bound; ``maxsize > 0``
        bounds the subscriber queue, with ``overflow`` choosing between
        ``"block"`` (publisher backpressure) and ``"drop_oldest"``
        (bounded memory for slow consumers; discarded pairs are counted
        in the returned subscription's ``dropped``).  Subscribing to an
        already-closed service yields nothing and ends immediately (it
        never blocks).
        """
        if overflow not in _OVERFLOW_POLICIES:
            raise InvalidParameterError(
                f"overflow must be one of {_OVERFLOW_POLICIES}, "
                f"got {overflow!r}"
            )
        if not isinstance(maxsize, int) or isinstance(maxsize, bool) or maxsize < 0:
            raise InvalidParameterError(
                f"maxsize must be an integer >= 0, got {maxsize!r}"
            )
        subscription = Subscription(maxsize, overflow)
        self._subscribers.append(subscription)
        if self._closed:
            subscription._end()
        return subscription

    async def close(self) -> None:
        """Close the engine (syncing its WAL) and end every subscription.

        Idempotent and concurrency-safe: the first caller performs the
        shutdown, every other (and every repeat) call awaits the same
        completion.  Subscribers then receive the end-of-stream sentinel.
        """
        if self._closed:
            if self._close_done is not None:
                await self._close_done.wait()
            return
        self._closed = True
        self._close_done = asyncio.Event()
        try:
            async with self._lock:
                await asyncio.to_thread(self._join.close)
            for subscription in list(self._subscribers):
                subscription._end()
            # Final metrics fan-out: the closing snapshot lands in the
            # registry even for services that never called stats().
            publish_stream_stats(self._join.stats(), registry=self._registry)
        finally:
            self._close_done.set()

    async def __aenter__(self) -> "StreamJoinService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
