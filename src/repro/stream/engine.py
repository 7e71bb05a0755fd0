"""`StreamingJoin`: the incremental similarity-join engine.

Where :func:`repro.core.join.partsj_join` consumes a complete collection,
``StreamingJoin`` consumes trees **one at a time** (or in micro-batches)
and yields verified ``(i, j, distance)`` pairs as they are found.  The
contract — property-tested in ``tests/stream/`` — is *flush-point
equivalence*: after any prefix of arrivals (and a :meth:`flush`),
:meth:`results` equals a batch ``similarity_join`` over exactly that
prefix, bit for bit, for **any arrival order**.

One arrival runs three steps:

1. **Coherent in-place insertion** —
   :meth:`repro.baselines.common.SizeSortedCollection.insert` splices the
   tree into the live sorted order, sizes and size histogram (no rebuild,
   no re-sort).
2. **Bidirectional probe** — the shared
   :meth:`repro.core.join.ShardDriver.ingest` entry point probes the tree
   *forward* against the two-layer index (partners of size ``<= |T|``,
   plus the small-tree pool) and partitions/files it; the partition
   subgraphs then probe the *reverse* node-twig index
   (:class:`repro.stream.reverse.NodeTwigIndex`) for already-ingested
   **larger** partners — the pairs a batch run would have discovered
   later, when the larger tree probed.  The union reproduces the batch
   candidate set exactly (same filters, same windows, same structural
   match), so even the strict ``paper`` filter variants stream
   identically to their batch behavior.
3. **Verification** — candidates run the threshold-aware
   :class:`~repro.baselines.common.Verifier` inline (``workers == 1``) or
   are handed to the background verification pool
   (:class:`repro.parallel.verify_pool.StreamVerifyPool`), whose
   completed pairs are collected opportunistically on later arrivals and
   exhaustively by :meth:`flush`.

The engine keeps every ingested tree's :class:`~repro.core.treecache.TreeCache`
in one :class:`~repro.core.treecache.RecordStore`, so reverse anchors can
be structurally matched at any time and every verification reads warm
views; together with the node-twig registrations this is the warm-index
state that :meth:`searcher` exposes for mid-ingest ``similarity_search``
queries (no rebuild — the searcher is a live view).  Memory therefore
grows with the ingested prefix; the spill-to-disk inverted size index is
the ROADMAP follow-up.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.baselines.common import JoinPair, SizeSortedCollection, Verifier
from repro.core.index import PostorderFilter, postorder_half_width
from repro.core.join import PartSJConfig, ShardDriver
from repro.core.subgraph import MatchSemantics
from repro.errors import InvalidParameterError
from repro.obs.trace import NULL_TRACER
from repro.params import check_tau, check_workers
from repro.stream.reverse import NodeTwigIndex
from repro.tree.node import Tree

__all__ = ["StreamStats", "StreamingJoin"]


@dataclass
class StreamStats:
    """A snapshot of the streaming engine's state and counters.

    ``ingest_time`` is wall time spent inside :meth:`StreamingJoin.add`
    — candidate generation plus verification dispatch, so with
    ``workers == 1`` it *includes* the inline ``verify_time`` (the two
    overlap; they are not additive).  ``pending_verification`` is the
    number of candidate pairs submitted to the background pool whose
    outcome has not been collected yet (always ``0`` with
    ``workers == 1`` or right after a flush).
    """

    trees: int = 0
    results: int = 0
    candidates: int = 0
    reverse_candidates: int = 0
    pending_verification: int = 0
    ingest_time: float = 0.0
    verify_time: float = 0.0
    index_subgraphs: int = 0
    index_entries: int = 0
    reverse_nodes: int = 0
    small_pool: int = 0
    workers: int = 1
    # Failure-semantics counters: malformed ingest items skipped under
    # on_error="skip" (the quarantine channel of the service and the CLI
    # --stream path); poison *pairs* quarantined by the background verify
    # pool appear under extra["quarantined_pairs"].
    quarantined_trees: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ingest_rate(self) -> float:
        """Trees ingested per second of ingest wall time."""
        return self.trees / self.ingest_time if self.ingest_time > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the CLI's ``--stream --json`` payload)."""
        return {
            "trees": self.trees,
            "results": self.results,
            "candidates": self.candidates,
            "reverse_candidates": self.reverse_candidates,
            "pending_verification": self.pending_verification,
            "ingest_time": round(self.ingest_time, 6),
            "verify_time": round(self.verify_time, 6),
            "ingest_rate": round(self.ingest_rate, 3),
            "index_subgraphs": self.index_subgraphs,
            "index_entries": self.index_entries,
            "reverse_nodes": self.reverse_nodes,
            "small_pool": self.small_pool,
            "workers": self.workers,
            "quarantined_trees": self.quarantined_trees,
            "extra": self.extra,
        }


class StreamingJoin:
    """Incremental tree similarity self-join over a stream of arrivals.

    Parameters
    ----------
    tau:
        The TED threshold.
    config:
        PartSJ filter configuration (defaults to the provably-exact one).
        Its ``workers`` field is an execution knob and is overridden by
        the explicit ``workers`` argument when given.
    workers:
        ``1`` (default) verifies candidates inline; ``> 1`` runs them
        through the background verification pool — results are identical,
        but arrive asynchronously (collected on later :meth:`add` calls
        and by :meth:`flush`).
    wal:
        Optional path of a write-ahead log.  Every arrival is appended
        (per-record CRC32) *before* it mutates engine state, so a
        crashed stream resumes via :meth:`recover` with state
        bit-identical to a batch join over the logged prefix.  An
        existing file at this path is truncated — a fresh engine is a
        fresh stream; continuing an old log is :meth:`recover`'s job.
    wal_fsync:
        Durability policy of the log: ``"always"`` fsyncs every arrival
        before ``add`` returns, ``"batch"`` (default) fsyncs at flush
        points (:meth:`flush` / :meth:`close`), ``"never"`` leaves it to
        the OS.  See :mod:`repro.persist.wal`.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When enabled it records a
        ``wal.append`` span per logged arrival, a ``stream.flush`` span
        per flush, and the background pool's relayed per-chunk
        ``verify.stream_chunk`` spans.  Tracing never changes pairs,
        distances, or any :class:`StreamStats` field.

    Usage::

        join = StreamingJoin(tau=2)
        for tree in arriving_trees:
            for pair in join.add(tree):
                ...            # verified (i, j, distance), i < j
        join.flush()
        join.results()         # == similarity_join(arrived_trees, 2).pairs

    Tree indices in result pairs are **arrival positions** (0-based), so
    they match a batch join over the arrival-ordered prefix.
    """

    def __init__(
        self,
        tau: int,
        config: Optional[PartSJConfig] = None,
        workers: Optional[int] = None,
        wal: Optional[str] = None,
        wal_fsync: str = "batch",
        tracer=None,
    ):
        check_tau(tau)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        cfg = (config or PartSJConfig()).resolved()
        if workers is not None:
            cfg = replace(cfg, workers=check_workers(workers))
        self.tau = tau
        self.config = cfg
        self.workers = cfg.workers
        self.trees: list[Tree] = []
        self.collection = SizeSortedCollection(self.trees)
        # Serial driver config: the driver is the in-process probe/insert
        # engine either way; workers only parallelize verification.
        self._driver = ShardDriver(self.trees, tau, replace(cfg, workers=1))
        # One record per arrival, shared by the probe, the reverse-index
        # matches, inline verification and every searcher.
        self._records = self._driver.records
        self._verifier = Verifier(self.trees, tau, caches=self._records)
        self._reverse = NodeTwigIndex(tau, self._driver.index.postorder_filter)
        self._pairs: list[JoinPair] = []
        self._pool = None
        self._pool_stats: dict = {}
        self._candidates = 0
        self._reverse_candidates = 0
        self._ingest_time = 0.0
        self._quarantined_trees = 0
        self._quarantine_log: list[dict] = []
        self._min_size = self._driver.min_size
        self._strict = cfg.semantics is MatchSemantics.PAPER
        self._closed = False
        self._recovered: Optional[dict] = None
        self._wal = None
        if wal is not None:
            from repro.persist.wal import StreamWAL

            # A fresh engine means a fresh stream: arrival indices start
            # at 0, so an existing log is truncated, not appended to
            # (continuing an old log is recover()'s job).
            self._wal = StreamWAL.create(
                wal, tau, cfg, fsync=wal_fsync, tracer=self._tracer
            )

    # -- ingestion -----------------------------------------------------------

    def add(self, tree: Tree) -> list[JoinPair]:
        """Ingest one tree; return pairs verified during this call.

        With ``workers == 1`` the returned pairs are exactly the new
        tree's results against the ingested prefix.  With a background
        pool they are whatever submissions completed by now (possibly
        involving earlier arrivals); :meth:`flush` collects the rest.
        """
        if self._closed:
            raise InvalidParameterError("StreamingJoin is closed")
        if not isinstance(tree, Tree):
            raise InvalidParameterError(
                f"add expects a Tree, got {type(tree).__name__}"
            )
        start = time.perf_counter()
        if self._wal is not None:
            # Write-ahead: log the arrival before any engine state
            # changes.  A crash after the append replays this tree on
            # recovery; a crash before it loses the tree but leaves the
            # log describing exactly the applied prefix — either way the
            # recovered state is batch-equivalent over the logged trees.
            from repro.tree.bracket import to_bracket

            with self._tracer.span("wal.append", arrival=len(self.trees)):
                self._wal.append(to_bracket(tree))
        i = self.collection.insert(tree)
        candidates, subgraphs = self._driver.ingest(i)
        if subgraphs is not None:
            self._reverse.insert_tree(
                self._records[i], i, self._driver.numbering
            )
            self._reverse_probe(i, tree.size, subgraphs, candidates)
        else:
            self._small_reverse_scan(i, tree.size, candidates)
        self._candidates += len(candidates)
        found = self._dispatch(i, candidates)
        self._ingest_time += time.perf_counter() - start
        return found

    def add_many(self, trees: Iterable[Tree]) -> list[JoinPair]:
        """Ingest a micro-batch; returns all pairs verified along the way."""
        found: list[JoinPair] = []
        for tree in trees:
            found.extend(self.add(tree))
        return found

    def record_quarantine(self, error, source=None) -> None:
        """Count one malformed ingest item skipped under ``on_error="skip"``.

        The quarantine channel of the streaming ingest paths: the service
        and the CLI call this for every item they drop, so the loss is
        visible in :attr:`StreamStats.quarantined_trees` (a bounded tail
        of the errors is kept in ``stats().extra["quarantine_log"]``).
        """
        self._quarantined_trees += 1
        if len(self._quarantine_log) < 32:
            entry = {"error": str(error)}
            if source is not None:
                entry["source"] = source
            self._quarantine_log.append(entry)

    def _reverse_probe(
        self, i: int, n: int, subgraphs: list, candidates: list[int]
    ) -> None:
        """Find already-ingested partners *larger* than tree ``i``.

        Mirrors the forward probe's dedup discipline: a pair enters
        ``checked`` only when a structural match succeeds, so the
        streamed candidate set matches the batch run's exactly.
        """
        tau = self.tau
        lo_size = n + 1
        hi_size = n + tau
        if lo_size > hi_size:
            return
        mode = self._reverse.postorder_filter
        off = mode is PostorderFilter.OFF
        checked = self._driver.checked
        records = self._records
        strict = self._strict
        before = len(candidates)
        for s in subgraphs:
            half = 0 if off else postorder_half_width(mode, tau, s.rank)
            for owner, b in self._reverse.anchors(
                s.twig_key, s.postorder_id, half, lo_size, hi_size
            ):
                key = (owner, i) if owner < i else (i, owner)
                if key in checked:
                    continue
                if s.matches_at_number(records[owner], b, strict):
                    checked.add(key)
                    candidates.append(owner)
        self._reverse_candidates += len(candidates) - before

    def _small_reverse_scan(self, i: int, n: int, candidates: list[int]) -> None:
        """Larger partners of a small (unpartitionable) arrival, directly.

        In a batch run every later tree within the size window consults
        the small pool when it probes; a small tree arriving *after* its
        larger partners must pair with them here instead.  All such
        partners have at most ``n + tau < 3*tau + 1`` nodes, so the
        unfiltered scan is as cheap as the pool scan it mirrors.
        """
        tau = self.tau
        lo_size = n + 1
        hi_size = n + tau
        if lo_size > hi_size:
            return
        sizes = self.collection.sizes
        order = self.collection.order
        checked = self._driver.checked
        before = len(candidates)
        for position in range(
            bisect_left(sizes, lo_size), bisect_right(sizes, hi_size)
        ):
            j = order[position]
            if j == i:
                continue
            key = (j, i) if j < i else (i, j)
            if key not in checked:
                checked.add(key)
                candidates.append(j)
        self._reverse_candidates += len(candidates) - before

    # -- verification --------------------------------------------------------

    def _dispatch(self, i: int, candidates: list[int]) -> list[JoinPair]:
        if self.workers <= 1:
            found: list[JoinPair] = []
            for j in candidates:
                distance = self._verifier.verify(i, j)
                if distance is not None:
                    lo, hi = (i, j) if i < j else (j, i)
                    found.append(JoinPair(lo, hi, distance))
            self._pairs.extend(found)
            return found
        pool = self._ensure_pool()
        if candidates:
            pool.submit([(i, j) for j in candidates], self.trees)
        found = [JoinPair(*triple) for triple in pool.poll()]
        self._pairs.extend(found)
        return found

    def _ensure_pool(self):
        if self._pool is None:
            from repro.parallel.verify_pool import StreamVerifyPool

            self._pool = StreamVerifyPool(
                self.tau,
                self.workers,
                policy=self.config.retry,
                injector=self.config.fault_injector,
                tracer=self._tracer,
            )
        return self._pool

    def flush(self) -> list[JoinPair]:
        """Drain all pending verification work; return the pairs it found.

        After a flush, :meth:`results` is complete for the ingested
        prefix — the streaming flush point the batch-equivalence property
        is stated at.  A no-op (empty list) with inline verification.
        With a WAL attached, a flush is also a durability point: under
        the ``"batch"`` fsync policy the logged prefix is synced here.
        """
        with self._tracer.span(
            "stream.flush",
            pending=self._pool.pending if self._pool else 0,
        ) as sp:
            if self._wal is not None:
                self._wal.sync()
            if self._pool is None:
                return []
            found = [JoinPair(*triple) for triple in self._pool.drain()]
            self._pairs.extend(found)
            sp.set("found", len(found))
        return found

    # -- results and introspection -------------------------------------------

    @property
    def pairs(self) -> list[JoinPair]:
        """Verified pairs in discovery order (no pending-work drain)."""
        return self._pairs

    def results(self) -> list[JoinPair]:
        """All verified pairs so far, in the batch join's canonical order.

        Call :meth:`flush` first when a background pool is active;
        otherwise pairs still in flight are not included.
        """
        return sorted(self._pairs, key=lambda p: p.key())

    def __len__(self) -> int:
        return len(self.trees)

    def searcher(self):
        """A live ``similarity_search`` view over the warm index.

        Returns a :class:`repro.stream.searcher.StreamSearcher` bound to
        this engine's index, interner, small pool and reverse index —
        nothing is copied or rebuilt, so queries interleave freely with
        ingestion and always see exactly the ingested prefix.
        """
        from repro.stream.searcher import StreamSearcher

        return StreamSearcher(self)

    def stats(self) -> StreamStats:
        """Counter snapshot; see :class:`StreamStats`."""
        driver = self._driver
        verify_time = self._verifier.stats_time
        ted_calls = self._verifier.stats_ted_calls
        extra = dict(driver.counters.as_dict())
        extra.update(self._verifier.extra_stats())
        if self._pool is not None:
            pool_stats = self._pool.stats()
            verify_time += pool_stats.pop("verify_time", 0.0)
            ted_calls += pool_stats.pop("ted_calls", 0)
            for key in ("lb_filtered", "ub_accepted", "ted_early_exits"):
                extra[key] = extra.get(key, 0) + pool_stats.pop(key, 0)
            extra.update(pool_stats)
        extra["ted_calls"] = ted_calls
        if self._quarantine_log:
            extra["quarantine_log"] = list(self._quarantine_log)
        if self._wal is not None or self._recovered is not None:
            wal_info = self._wal.describe() if self._wal is not None else {}
            if self._recovered is not None:
                wal_info["recovered"] = dict(self._recovered)
            extra["wal"] = wal_info
        return StreamStats(
            trees=len(self.trees),
            results=len(self._pairs),
            candidates=self._candidates,
            reverse_candidates=self._reverse_candidates,
            pending_verification=self._pool.pending if self._pool else 0,
            ingest_time=self._ingest_time,
            verify_time=verify_time,
            index_subgraphs=driver.index.total_subgraphs,
            index_entries=driver.index.total_entries,
            reverse_nodes=self._reverse.node_count,
            small_pool=len(driver.small_pool),
            workers=self.workers,
            quarantined_trees=self._quarantined_trees,
            extra=extra,
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain pending work, sync and close the WAL, release the
        background pool (idempotent)."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            if self._wal is not None:
                self._wal.close()
            self._closed = True

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        path,
        workers: Optional[int] = None,
        fsync: str = "batch",
        resume: bool = True,
        tracer=None,
    ) -> "StreamingJoin":
        """Rebuild an engine from a write-ahead log after a crash.

        Reads the log (tolerating a torn final record — the one kind of
        damage a crash mid-append can cause), then replays every logged
        arrival through the normal ingest path, so the returned engine's
        state — trees, sorted order, indexes, verified pairs — is
        **bit-identical to a batch join over the logged prefix**.  With
        ``resume=True`` (default) the log's torn tail is truncated away
        and the engine keeps appending to it, so ingestion continues
        where the crashed process left off.

        ``tau`` and the filter config come from the log header, not from
        arguments — a WAL only replays correctly under the config it was
        written with.  ``workers`` is an execution knob and may differ.

        Raises
        ------
        SnapshotFormatError
            Not a WAL, or an unreadable/unsupported header.
        WALCorruptError
            Damage *before* the final record (salvage stats attached):
            replaying past a mid-log hole would silently drop arrivals.
        """
        from repro.persist.wal import StreamWAL, scan_wal
        from repro.tree.bracket import parse_bracket

        resolved_tracer = tracer if tracer is not None else NULL_TRACER
        with resolved_tracer.span("wal.recover", path=str(path)) as sp:
            scanned = scan_wal(path)
            header = scanned["header"]
            config = PartSJConfig(**header["config"]).resolved()
            engine = cls(
                header["tau"], config=config, workers=workers, tracer=tracer
            )
            for bracket in scanned["brackets"]:
                engine.add(parse_bracket(bracket))
            engine.flush()
            salvage = scanned["salvage"]
            sp.set("records", salvage["records"])
            engine._recovered = {"path": str(path), **salvage}
            if resume:
                engine._wal = StreamWAL.reopen(
                    path, salvage["good_bytes"], salvage["records"],
                    fsync=fsync, tracer=resolved_tracer,
                )
        return engine

    def __enter__(self) -> "StreamingJoin":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
