"""`StreamingJoin`: the incremental similarity-join engine.

Where :func:`repro.core.join.partsj_join` consumes a complete collection,
``StreamingJoin`` consumes trees **one at a time** and returns the
verified ``(i, j, distance)`` pairs each arrival completes.

An arrival searches the prefix before it, then joins it:

1. **Probe and insert** — the shared
   :meth:`repro.core.join.ShardDriver.ingest` entry point walks every
   arrival, partitionable or not, once over the subgraph index for
   earlier arrivals of size ``[n - tau, n + tau]`` (``n`` the arrival's
   size; :meth:`repro.core.index.InvertedSizeIndex.probe`, the walk the
   searchers run for a query, with its larger-side rule above ``n``) and
   scans the small-tree pool for those of size ``[n - tau, n + tau]``,
   then files the arrival's partition (or pools it).
2. **Verification** — the threshold-aware
   :class:`~repro.baselines.common.Verifier` checks each candidate
   inline, in the pass that found it (paper Algorithm 1), so
   :meth:`add` returns exactly the arrival's new pairs.

So each arrival's candidates are exactly those a
:class:`~repro.stream.searcher.StreamSearcher` over the prefix before it
finds with the arrival as its query.  The contract — property-tested in
``tests/stream/`` — is *prefix equivalence*, for **any arrival order**:

- under a sound filter configuration (the default, and every config
  that windows neither by the published ``Delta'`` nor by binary
  postorder numbers), :meth:`results` after any prefix of arrivals
  equals a batch join (``TreeCollection.join``) over exactly that
  prefix, bit for bit;
- under the opt-in published window or a window on binary numbers, the
  batch join may miss true pairs.  The stream returns every pair that batch join
  returns, with the same exact distances, and may return more: the sizes
  above an arrival's are matched under SAFE semantics with a window that
  holds.

The engine keeps every ingested tree's :class:`~repro.core.treecache.TreeCache`
in one :class:`~repro.core.treecache.RecordStore`, so probes and
verifications read warm views; that is also the warm-index state that
:meth:`searcher` exposes for mid-ingest similarity searches (no
rebuild — the searcher is a live view).  Memory therefore grows with the
ingested prefix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.baselines.common import JoinPair, Verifier
from repro.core.join import PartSJConfig, ShardDriver
from repro.errors import InvalidParameterError
from repro.obs.trace import NULL_TRACER
from repro.params import check_tau
from repro.tree.node import Tree

__all__ = ["StreamStats", "StreamingJoin"]


@dataclass
class StreamStats:
    """A snapshot of the streaming engine's state and counters.

    ``candidates`` counts every candidate verified; it includes the
    ``reverse_candidates``, those among earlier arrivals larger than the
    arriving tree.

    ``ingest_time`` is wall time spent inside :meth:`StreamingJoin.add`
    — candidate generation plus verification, so it *includes*
    ``verify_time`` (the two overlap; they are not additive).
    """

    trees: int = 0
    results: int = 0
    candidates: int = 0
    reverse_candidates: int = 0
    ingest_time: float = 0.0
    verify_time: float = 0.0
    index_subgraphs: int = 0
    index_entries: int = 0
    small_pool: int = 0
    # Malformed ingest items skipped under on_error="skip" (the
    # quarantine channel of the service and the CLI --stream path).
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
            "ingest_time": round(self.ingest_time, 6),
            "verify_time": round(self.verify_time, 6),
            "ingest_rate": round(self.ingest_rate, 3),
            "index_subgraphs": self.index_subgraphs,
            "index_entries": self.index_entries,
            "small_pool": self.small_pool,
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
        Its execution fields (``workers``, ``retry``, ``fault_injector``)
        configure the batch executor and are ignored here: a stream runs
        in this process and verifies every candidate inline.
    wal:
        Optional path of a write-ahead log.  Every arrival is appended
        (per-record CRC32) *before* it mutates engine state, so a
        crashed stream resumes via :meth:`recover` with the state it had
        after the logged prefix.  An
        existing file at this path is truncated — a fresh engine is a
        fresh stream; continuing an old log is :meth:`recover`'s job.
    wal_fsync:
        Durability policy of the log: ``"always"`` fsyncs every arrival
        before ``add`` returns, ``"batch"`` (default) fsyncs at flush
        points (:meth:`flush` / :meth:`close`), ``"never"`` leaves it to
        the OS.  See :mod:`repro.persist.wal`.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When enabled it records a
        ``wal.append`` span per logged arrival and a ``stream.flush``
        span per flush.  Tracing never changes pairs, distances, or any
        :class:`StreamStats` field.

    Usage::

        join = StreamingJoin(tau=2)
        for tree in arriving_trees:
            for pair in join.add(tree):
                ...            # verified (i, j, distance), i < j
        join.results()         # == TreeCollection.from_trees(arrived_trees)
                               #    .join(2).run().pairs

    Tree indices in result pairs are **arrival positions** (0-based), so
    they match a batch join over the arrival-ordered prefix.
    """

    def __init__(
        self,
        tau: int,
        config: Optional[PartSJConfig] = None,
        wal: Optional[str] = None,
        wal_fsync: str = "batch",
        tracer=None,
    ):
        check_tau(tau)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        cfg = (config or PartSJConfig()).resolved()
        self.tau = tau
        self.config = cfg
        self.trees: list[Tree] = []
        self._driver = ShardDriver(self.trees, tau, cfg)
        # One record per arrival, shared by its probe, inline
        # verification and every searcher.
        self._records = self._driver.records
        self._verifier = Verifier(self.trees, tau, caches=self._records)
        self._pairs: list[JoinPair] = []
        self._candidates = 0
        self._reverse_candidates = 0
        self._ingest_time = 0.0
        self._quarantined_trees = 0
        self._quarantine_log: list[dict] = []
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
        """Ingest one tree; return its results against the ingested prefix.

        Every candidate is verified here, so under a sound config the
        returned pairs are exactly the batch pairs of the prefix whose
        larger index is this arrival.  A verification that raises
        propagates, as in a serial batch join.
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
            # recovered state is the stream's over the logged trees.
            with self._tracer.span("wal.append", arrival=len(self.trees)):
                self._wal.append(tree.to_bracket())
        i = len(self.trees)
        self.trees.append(tree)
        candidates = self._driver.ingest(i)
        n = tree.size
        trees = self.trees
        self._reverse_candidates += sum(trees[j].size > n for j in candidates)
        self._candidates += len(candidates)
        found: list[JoinPair] = []
        for j in candidates:
            distance = self._verifier.verify(i, j)
            if distance is not None:
                lo, hi = (i, j) if i < j else (j, i)
                found.append(JoinPair(lo, hi, distance))
        self._pairs.extend(found)
        self._ingest_time += time.perf_counter() - start
        return found

    def add_many(self, trees: Iterable[Tree]) -> list[JoinPair]:
        """Ingest ``trees`` in order; return every pair they complete."""
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

    # -- flush point ---------------------------------------------------------

    def flush(self) -> list[JoinPair]:
        """Sync the WAL; return ``[]`` (every pair is already verified).

        With a WAL attached, a flush is the durability point: under the
        ``"batch"`` fsync policy the logged prefix is synced here.  It is
        traced as one ``stream.flush`` span.
        """
        with self._tracer.span("stream.flush"):
            if self._wal is not None:
                self._wal.sync()
        return []

    # -- results and introspection -------------------------------------------

    @property
    def pairs(self) -> list[JoinPair]:
        """Verified pairs in discovery order."""
        return self._pairs

    def results(self) -> list[JoinPair]:
        """All verified pairs so far, in the batch join's canonical order."""
        return sorted(self._pairs, key=lambda p: p.key())

    def __len__(self) -> int:
        return len(self.trees)

    def searcher(self):
        """A live similarity-search view over the warm index.

        Returns a :class:`repro.stream.searcher.StreamSearcher` bound to
        this engine's index, interner, small pool and records — nothing
        is copied or rebuilt, so queries interleave freely with ingestion
        and always see exactly the ingested prefix.
        """
        from repro.stream.searcher import StreamSearcher

        return StreamSearcher(self)

    def stats(self) -> StreamStats:
        """Counter snapshot; see :class:`StreamStats`."""
        driver = self._driver
        extra = dict(driver.counters.as_dict())
        extra.update(self._verifier.extra_stats())
        extra["ted_calls"] = self._verifier.stats_ted_calls
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
            ingest_time=self._ingest_time,
            verify_time=self._verifier.stats_time,
            index_subgraphs=driver.index.total_subgraphs,
            index_entries=driver.index.total_entries,
            small_pool=len(driver.small_pool),
            quarantined_trees=self._quarantined_trees,
            extra=extra,
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Sync and close the WAL (idempotent)."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            if self._wal is not None:
                self._wal.close()
            self._closed = True

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        path,
        fsync: str = "batch",
        resume: bool = True,
        tracer=None,
    ) -> "StreamingJoin":
        """Rebuild an engine from a write-ahead log after a crash.

        Reads the log (tolerating a torn final record — the one kind of
        damage a crash mid-append can cause), then replays every logged
        arrival through the normal ingest path, so the returned engine's
        state — trees, indexes, verified pairs — is the stream's after
        the logged prefix, which under a sound config is **bit-identical
        to a batch join over the logged prefix**.  With
        ``resume=True`` (default) the log's torn tail is truncated away
        and the engine keeps appending to it, so ingestion continues
        where the crashed process left off.

        ``tau`` and the filter config come from the log header, not from
        arguments — a WAL only replays correctly under the config it was
        written with.

        Raises
        ------
        InvalidParameterError
            An unknown ``fsync`` policy (with ``resume=True``), before
            the log is read.
        SnapshotFormatError
            Not a WAL, or an unreadable/unsupported header.
        WALCorruptError
            Damage *before* the final record (salvage stats attached):
            replaying past a mid-log hole would silently drop arrivals.
        """
        from repro.persist.wal import StreamWAL, _check_policy, scan_wal

        if resume:
            _check_policy(fsync)  # before a replay that reopens the log
        resolved_tracer = tracer if tracer is not None else NULL_TRACER
        with resolved_tracer.span("wal.recover", path=str(path)) as sp:
            scanned = scan_wal(path)
            header = scanned["header"]
            config = PartSJConfig(**header["config"]).resolved()
            engine = cls(header["tau"], config=config, tracer=tracer)
            for bracket in scanned["brackets"]:
                engine.add(Tree.from_bracket(bracket))
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
