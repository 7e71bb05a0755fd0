"""Per-process state and task functions for the parallel join workers.

Worker processes receive the collection **once**, through the pool
initializer, as the ``Tree`` list itself: a fork pool's children inherit
it without any serialization, and a spawn pool pickles it as bracket text
(``Tree.__reduce__``).  Task payloads then stay small: a
:class:`~.sharding.ShardPlan` going in and a :class:`~.sharding.ShardResult`
coming back, or a chunk of candidate pairs going in and its accepted
triples coming back.

A shard task runs the serial loop of Algorithm 1 over its handoff band
and owned trees — probe, insert, verify — with one record store shared by
its driver and its verifier, and returns only result triples and
counters.  The verify-chunk task serves the baselines' parallel
verification (:func:`repro.parallel.verify_pool.parallel_verify`): its
:class:`repro.baselines.common.Verifier` is created once per process on
first use and kept for the rest of the pool's life, so the views memoized
on its per-tree records amortize across chunks exactly as they do across
candidates in a serial run.
"""

from __future__ import annotations

import itertools
import os
import time
from collections.abc import Sequence
from typing import Optional

from repro.baselines.common import Verifier
from repro.core.join import PartSJConfig, ShardDriver
from repro.errors import InvalidInputTypeError, WorkerStateError
from repro.obs.trace import span_dict
from repro.parallel.sharding import ShardPlan, ShardResult
from repro.resilience.faults import FaultInjector, corrupt_envelope, seal
from repro.tree.bracket import parse_bracket
from repro.tree.node import Tree

__all__ = [
    "execute_shard",
    "init_worker",
    "init_stream_worker",
    "run_shard_task",
    "verify_chunk_task",
    "verify_pairs",
    "verify_stream_chunk",
    "verify_stream_chunk_task",
]


# Worker-side span ids: unique per (process, counter).  Span capture is
# unconditional — a handful of dicts per shard, relayed inside the sealed
# result envelope — and the coordinator drops them when tracing is off,
# so no trace flag needs to cross the pool boundary.
_SPAN_SEQ = itertools.count(1)


def _span_id(prefix: str) -> str:
    return f"{prefix}-{os.getpid():x}-{next(_SPAN_SEQ)}"


class _WorkerState:
    """Everything a worker process holds between tasks."""

    def __init__(
        self,
        trees: Sequence[Tree],
        tau: int,
        config: Optional[PartSJConfig],
        verifier_options: Optional[dict],
        injector: Optional[FaultInjector] = None,
    ):
        self.trees = trees
        self.tau = tau
        self.config = config
        self.verifier_options = verifier_options or {}
        self.injector = injector
        self._verifier: Optional[Verifier] = None

    @property
    def verifier(self) -> Verifier:
        if self._verifier is None:
            self._verifier = Verifier(self.trees, self.tau, **self.verifier_options)
        return self._verifier


_STATE: Optional[_WorkerState] = None


def init_worker(
    trees: Sequence[Tree],
    tau: int,
    config: Optional[PartSJConfig] = None,
    verifier_options: Optional[dict] = None,
    injector: Optional[FaultInjector] = None,
) -> None:
    """Pool initializer: install the collection in this worker process."""
    global _STATE
    _STATE = _WorkerState(trees, tau, config, verifier_options, injector)


def _require_state() -> _WorkerState:
    if _STATE is None:  # pragma: no cover - misuse guard
        raise WorkerStateError(
            "worker state not initialized; the pool must be created with "
            "initializer=init_worker"
        )
    return _STATE


def _sealed(
    injector: Optional[FaultInjector], task_id: str, attempt: int, run, *args
) -> tuple:
    """``run(*args)`` as one supervised task → sealed result envelope.

    Applies any injected fault for this ``(task, attempt)``, then seals
    the result with an integrity CRC so the supervisor can detect
    corruption in transit.
    """
    if injector is not None:
        injector.fire(task_id, attempt)
    envelope = seal(run(*args))
    if injector is not None and injector.corrupts(task_id, attempt):
        envelope = corrupt_envelope(envelope)
    return envelope


def execute_shard(
    trees: Sequence[Tree],
    tau: int,
    config: Optional[PartSJConfig],
    plan: ShardPlan,
) -> ShardResult:
    """Probe, insert and verify one shard, against any tree sequence.

    Band trees are insert-only and strictly precede the owned trees in
    the sorted order, so one linear pass over ``band`` then ``owned``
    reproduces the serial loop's state for every owned probe (the
    handoff-band invariant of :mod:`repro.core.join`); each owned tree's
    candidates are verified as it probes, exactly as in the serial join.
    The result is a pure function of ``(trees, tau, config, plan)``, so
    the same shard re-executed anywhere — a retried worker, or the parent
    process during graceful degradation — yields the identical result.
    """
    started = time.perf_counter()
    driver = ShardDriver(trees, tau, config)
    verifier = Verifier(trees, tau, caches=driver.records)
    for i in plan.band:
        driver.insert_only(i)
    pairs, candidates = driver.join(plan.owned, verifier)
    wall_time = time.perf_counter() - started
    counters = driver.counters.as_dict()
    counters["ted_calls"] = verifier.stats_ted_calls
    counters.update(verifier.extra_stats())
    # Observability relay: one shard span plus its phase attribution,
    # shipped back through the sealed envelope (see ShardResult.spans).
    shard_span = _span_id(f"shard{plan.shard_id}")
    spans = [
        span_dict(
            f"shard:{plan.shard_id}", started, wall_time, shard_span,
            owned=len(plan.owned), band=len(plan.band),
            candidates=candidates, results=len(pairs),
        ),
        span_dict("partsj.band", started, driver.band_time,
                  _span_id("band"), parent_id=shard_span,
                  band_trees=driver.counters.band_trees),
        span_dict("partsj.probe", started, driver.probe_time,
                  _span_id("probe"), parent_id=shard_span,
                  probe_hits=driver.counters.probe_hits),
        span_dict("partsj.index", started, driver.index_time,
                  _span_id("index"), parent_id=shard_span,
                  subgraphs=driver.counters.subgraphs_built),
        span_dict("partsj.verify", started, verifier.stats_time,
                  _span_id("verify"), parent_id=shard_span,
                  ted_calls=verifier.stats_ted_calls),
    ]
    return ShardResult(
        shard_id=plan.shard_id,
        pairs=pairs,
        candidates=candidates,
        counters=counters,
        probe_time=driver.probe_time,
        index_time=driver.index_time,
        band_time=driver.band_time,
        verify_time=verifier.stats_time,
        wall_time=wall_time,
        index_entries=driver.index.total_entries,
        owned_count=len(plan.owned),
        band_count=len(plan.band),
        lo=plan.lo,
        hi=plan.hi,
        spans=spans,
    )


def run_shard_task(task: tuple) -> tuple:
    """Supervised shard task: ``(task_id, attempt, plan)`` → sealed result.

    Entry point of :class:`repro.resilience.PoolSupervisor` dispatch: runs
    :func:`execute_shard` over this worker's installed collection.
    """
    task_id, attempt, plan = task
    state = _require_state()
    return _sealed(state.injector, task_id, attempt, execute_shard,
                   state.trees, state.tau, state.config, plan)


def verify_pairs(
    verifier: Verifier, pairs: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int, int]], dict]:
    """Verify ``pairs`` on ``verifier``; return accepted triples + deltas.

    The shared verification loop of the verify-chunk tasks, streamed
    chunks, and their parent-side degradation fallbacks — so per-pair
    outcomes (and the stat deltas) are identical wherever a chunk ends up
    running.
    """
    calls_before = verifier.stats_ted_calls
    time_before = verifier.stats_time
    lb_before = verifier.stats_lb_filtered
    ub_before = verifier.stats_ub_accepted
    early_before = verifier.stats_ted_early_exits
    accepted: list[tuple[int, int, int]] = []
    for i, j in pairs:
        distance = verifier.verify(i, j)
        if distance is not None:
            lo, hi = (i, j) if i < j else (j, i)
            accepted.append((lo, hi, distance))
    stats = {
        "ted_calls": verifier.stats_ted_calls - calls_before,
        "verify_time": verifier.stats_time - time_before,
        "lb_filtered": verifier.stats_lb_filtered - lb_before,
        "ub_accepted": verifier.stats_ub_accepted - ub_before,
        "ted_early_exits": verifier.stats_ted_early_exits - early_before,
    }
    return accepted, stats


def verify_chunk_task(task: tuple) -> tuple:
    """Supervised verify task: ``(task_id, attempt, chunk)`` → sealed result.

    Verifies one batch of candidate pairs on this worker's persistent
    verifier and returns the accepted ``(i, j, distance)`` triples
    (``i < j``) plus the chunk's verification-stat deltas; per-pair
    outcomes are independent of batching, so any chunking of the same
    pair set merges to identical totals.
    """
    task_id, attempt, chunk = task
    state = _require_state()
    return _sealed(state.injector, task_id, attempt, verify_pairs,
                   state.verifier, chunk)


# ---------------------------------------------------------------------------
# Streaming verification workers
# ---------------------------------------------------------------------------
#
# A streaming join cannot ship "the collection" through the pool
# initializer — it does not exist yet when the pool starts.  Instead each
# task carries the bracket strings of exactly the trees its pairs
# reference; the worker files them in a per-process append-only store, so
# a tree revisited by later chunks (a near-duplicate cluster member, say)
# is parsed once and its Verifier records stay warm for the pool's life.


class GrowingTreeStore(Sequence):
    """An append-only, lazily parsed tree store indexed by arrival position.

    Brackets arrive incrementally (with each task), and indices may be
    sparse from any single worker's point of view — a worker only ever
    holds the trees its own chunks referenced.
    """

    __slots__ = ("_brackets", "_trees")

    def __init__(self) -> None:
        self._brackets: dict[int, str] = {}
        self._trees: dict[int, Tree] = {}

    def update(self, brackets: dict[int, str]) -> None:
        """File newly shipped brackets (never overwrites an earlier one)."""
        for index, bracket in brackets.items():
            self._brackets.setdefault(index, bracket)

    def __len__(self) -> int:
        return len(self._brackets)

    def __getitem__(self, index: int) -> Tree:
        if not isinstance(index, int):
            raise InvalidInputTypeError(
                "GrowingTreeStore supports integer indexing only"
            )
        tree = self._trees.get(index)
        if tree is None:
            tree = self._trees[index] = parse_bracket(self._brackets[index])
        return tree


class _StreamWorkerState:
    """Per-process state of a streaming verification worker."""

    def __init__(self, tau: int, injector: Optional[FaultInjector] = None):
        self.store = GrowingTreeStore()
        self.verifier = Verifier(self.store, tau)
        self.injector = injector


_STREAM_STATE: Optional[_StreamWorkerState] = None


def init_stream_worker(
    tau: int, injector: Optional[FaultInjector] = None
) -> None:
    """Pool initializer for streaming verification workers."""
    global _STREAM_STATE
    _STREAM_STATE = _StreamWorkerState(tau, injector)


def verify_stream_chunk(
    task: tuple[dict[int, str], Sequence[tuple[int, int]]],
) -> tuple[list[tuple[int, int, int]], dict]:
    """Verify one streamed candidate chunk (runs inside a worker process).

    ``task`` is ``(brackets, pairs)``: the bracket strings of every tree
    the pairs reference plus the pairs themselves.  Returns the accepted
    ``(i, j, distance)`` triples (``i < j``) and this chunk's
    verification-stat deltas — per-pair outcomes are independent of
    batching and of which worker ran them, so any routing of the same
    pair set merges to results identical to inline verification.
    """
    if _STREAM_STATE is None:  # pragma: no cover - misuse guard
        raise WorkerStateError(
            "stream worker state not initialized; the pool must be created "
            "with initializer=init_stream_worker"
        )
    brackets, pairs = task
    state = _STREAM_STATE
    state.store.update(brackets)
    started = time.perf_counter()
    accepted, delta = verify_pairs(state.verifier, pairs)
    delta["spans"] = [
        span_dict("verify.stream_chunk", started,
                  time.perf_counter() - started, _span_id("schunk"),
                  pairs=len(pairs), ted_calls=delta["ted_calls"]),
    ]
    return accepted, delta


def verify_stream_chunk_task(task: tuple) -> tuple:
    """Supervised streamed-verify task → sealed result.

    ``task`` is ``(task_id, brackets, pairs)``; streamed submissions are
    never re-dispatched to a pool (a failed one degrades straight to the
    parent-side fallback), so the attempt number is always 1.
    """
    task_id, brackets, pairs = task
    if _STREAM_STATE is None:  # pragma: no cover - misuse guard
        raise WorkerStateError(
            "stream worker state not initialized; the pool must be created "
            "with initializer=init_stream_worker"
        )
    return _sealed(_STREAM_STATE.injector, task_id, 1, verify_stream_chunk,
                   (brackets, pairs))
