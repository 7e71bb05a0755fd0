"""Per-process state and task functions for the parallel join workers.

Worker processes receive the collection **once**, through the pool
initializer, as bracket-notation strings (compact, picklable, and
identical under fork and spawn start methods); trees are re-parsed lazily
— a candidate-generation worker only ever materializes its shard plus
handoff band, a verification worker only the trees named by its pair
chunks.  Task payloads then stay small: a :class:`~.sharding.ShardPlan`
going in, a :class:`~.sharding.ShardResult` (or verified chunk) coming
back.

The verification engine (:class:`repro.baselines.common.Verifier`) is
created once per process on first use and kept for the rest of the pool's
life, so its per-tree annotation and feature caches amortize across
chunks exactly as they do across candidates in a serial run.
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
    "LazyTreeList",
    "execute_shard",
    "init_worker",
    "init_stream_worker",
    "run_shard",
    "run_shard_task",
    "verify_chunk",
    "verify_chunk_task",
    "verify_pairs",
    "verify_stream_chunk",
    "verify_stream_chunk_task",
]


# Worker-side span ids: unique per (process, counter).  Span capture is
# unconditional — a handful of dicts per shard/chunk, relayed inside the
# sealed result envelope — and the coordinator drops them when tracing
# is off, so no trace flag needs to cross the pool boundary.
_SPAN_SEQ = itertools.count(1)


def _span_id(prefix: str) -> str:
    return f"{prefix}-{os.getpid():x}-{next(_SPAN_SEQ)}"


class LazyTreeList(Sequence):
    """A tree collection parsed on demand from bracket strings.

    Quacks enough like ``Sequence[Tree]`` for :class:`ShardDriver` and
    :class:`Verifier`, which only ever index by integer; a worker thus
    pays parsing cost only for the trees its tasks actually touch.
    """

    __slots__ = ("_brackets", "_trees")

    def __init__(self, brackets: Sequence[str]):
        self._brackets = brackets
        self._trees: list[Optional[Tree]] = [None] * len(brackets)

    def __len__(self) -> int:
        return len(self._brackets)

    def __getitem__(self, index: int) -> Tree:
        if not isinstance(index, int):
            raise InvalidInputTypeError(
                "LazyTreeList supports integer indexing only"
            )
        tree = self._trees[index]
        if tree is None:
            tree = self._trees[index] = parse_bracket(self._brackets[index])
        return tree


class _WorkerState:
    """Everything a worker process holds between tasks."""

    def __init__(
        self,
        brackets: Sequence[str],
        tau: int,
        config: Optional[PartSJConfig],
        verifier_options: Optional[dict],
        injector: Optional[FaultInjector] = None,
    ):
        self.trees = LazyTreeList(brackets)
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
    brackets: Sequence[str],
    tau: int,
    config: Optional[PartSJConfig] = None,
    verifier_options: Optional[dict] = None,
    injector: Optional[FaultInjector] = None,
) -> None:
    """Pool initializer: install the collection in this worker process."""
    global _STATE
    _STATE = _WorkerState(brackets, tau, config, verifier_options, injector)


def _require_state() -> _WorkerState:
    if _STATE is None:  # pragma: no cover - misuse guard
        raise WorkerStateError(
            "worker state not initialized; the pool must be created with "
            "initializer=init_worker"
        )
    return _STATE


def execute_shard(
    trees: Sequence,
    tau: int,
    config: Optional[PartSJConfig],
    plan: ShardPlan,
) -> ShardResult:
    """Candidate generation for one shard, against any tree sequence.

    Band trees are insert-only and strictly precede the owned trees in
    the sorted order, so one linear pass over ``band`` then ``owned``
    reproduces the serial loop's state for every owned probe (the
    handoff-band invariant of :mod:`repro.core.join`).  The driver's
    output is a pure function of ``(trees, tau, config, plan)``, so the
    same shard re-executed anywhere — a retried worker, or the parent
    process during graceful degradation — yields the identical result.
    """
    started = time.perf_counter()
    driver = ShardDriver(trees, tau, config)
    for i in plan.band:
        driver.insert_only(i)
    candidates: list[tuple[int, int]] = []
    for i in plan.owned:
        found, _ = driver.ingest(i)
        for j in found:
            candidates.append((i, j))
    wall_time = time.perf_counter() - started
    # Observability relay: one shard span plus its phase attribution,
    # shipped back through the sealed envelope (see ShardResult.spans).
    shard_span = _span_id(f"shard{plan.shard_id}")
    spans = [
        span_dict(
            f"shard:{plan.shard_id}", started, wall_time, shard_span,
            owned=len(plan.owned), band=len(plan.band),
            candidates=len(candidates),
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
    ]
    return ShardResult(
        shard_id=plan.shard_id,
        candidates=candidates,
        counters=driver.counters.as_dict(),
        probe_time=driver.probe_time,
        index_time=driver.index_time,
        band_time=driver.band_time,
        wall_time=wall_time,
        indexed_subgraphs=driver.index.total_subgraphs,
        index_entries=driver.index.total_entries,
        owned_count=len(plan.owned),
        band_count=len(plan.band),
        lo=plan.lo,
        hi=plan.hi,
        spans=spans,
    )


def run_shard(plan: ShardPlan) -> ShardResult:
    """:func:`execute_shard` over this worker's installed collection."""
    state = _require_state()
    return execute_shard(state.trees, state.tau, state.config, plan)


def run_shard_task(task: tuple) -> tuple:
    """Supervised shard task: ``(task_id, attempt, plan)`` → sealed result.

    Entry point of :class:`repro.resilience.PoolSupervisor` dispatch —
    applies any injected fault for this ``(task, attempt)``, runs the
    shard, and seals the result with an integrity CRC so the supervisor
    can detect corruption in transit.
    """
    task_id, attempt, plan = task
    state = _require_state()
    if state.injector is not None:
        state.injector.fire(task_id, attempt)
    envelope = seal(run_shard(plan))
    if state.injector is not None and state.injector.corrupts(task_id, attempt):
        envelope = corrupt_envelope(envelope)
    return envelope


def verify_pairs(
    verifier: Verifier, pairs: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int, int]], dict]:
    """Verify ``pairs`` on ``verifier``; return accepted triples + deltas.

    The one shared verification loop of every execution path — batch
    worker chunks, streamed chunks, and the parent-side degradation
    fallbacks — so per-pair outcomes (and the stat deltas) are identical
    wherever a chunk ends up running.
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


def verify_chunk(
    chunk: Sequence[tuple[int, int]],
) -> tuple[list[tuple[int, int, int]], dict]:
    """Verify one batch of candidate pairs (runs inside a worker process).

    Returns the accepted ``(i, j, distance)`` triples (``i < j``) and the
    chunk's verification-stat deltas; per-pair outcomes are independent of
    batching, so any chunking of the same pair set merges to identical
    totals.  The delta additionally carries this chunk's observability
    span under ``"spans"`` — relayed through the sealed envelope, grafted
    by the coordinator when tracing is on, ignored by the stat merge
    either way (it never reaches ``JoinStats``).
    """
    state = _require_state()
    started = time.perf_counter()
    accepted, delta = verify_pairs(state.verifier, chunk)
    delta["spans"] = [
        span_dict("verify.chunk", started, time.perf_counter() - started,
                  _span_id("vchunk"), pairs=len(chunk),
                  ted_calls=delta["ted_calls"]),
    ]
    return accepted, delta


def verify_chunk_task(task: tuple) -> tuple:
    """Supervised verify task: ``(task_id, attempt, chunk)`` → sealed result."""
    task_id, attempt, chunk = task
    state = _require_state()
    if state.injector is not None:
        state.injector.fire(task_id, attempt)
    envelope = seal(verify_chunk(chunk))
    if state.injector is not None and state.injector.corrupts(task_id, attempt):
        envelope = corrupt_envelope(envelope)
    return envelope


# ---------------------------------------------------------------------------
# Streaming verification workers
# ---------------------------------------------------------------------------
#
# A streaming join cannot ship "the collection" through the pool
# initializer — it does not exist yet when the pool starts.  Instead each
# task carries the bracket strings of exactly the trees its pairs
# reference; the worker files them in a per-process append-only store, so
# a tree revisited by later chunks (a near-duplicate cluster member, say)
# is parsed once and its Verifier caches stay warm for the pool's life.


class GrowingTreeStore(Sequence):
    """An append-only, lazily parsed tree store indexed by arrival position.

    The streaming counterpart of :class:`LazyTreeList`: brackets arrive
    incrementally (with each task) instead of all at once, and indices
    may be sparse from any single worker's point of view — a worker only
    ever holds the trees its own chunks referenced.
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
    injector = _STREAM_STATE.injector
    if injector is not None:
        injector.fire(task_id, 1)
    envelope = seal(verify_stream_chunk((brackets, pairs)))
    if injector is not None and injector.corrupts(task_id, 1):
        envelope = corrupt_envelope(envelope)
    return envelope
