"""Parallel verification: chunked candidate pairs through worker Verifiers.

Verification is embarrassingly parallel — each candidate pair's outcome
depends only on its two trees and ``tau`` — so the four baseline joins
hand their candidate lists to :func:`parallel_verify` (through
:class:`~repro.baselines.common.DeferredVerification`) and get back
exactly the pairs and exact distances a serial
:class:`~repro.baselines.common.Verifier` would produce.  The
method-specific filter configuration (which bag bounds the candidate
screen already applied, whether the traversal bound is redundant) travels
as the ``options`` dict, which is passed verbatim to each worker's
``Verifier``.  PartSJ does not come here: its shards verify their own
candidates (:mod:`repro.parallel.executor`).

Pairs are sorted into canonical order and cut into
``workers * CHUNKS_PER_WORKER`` chunks, dispatched as ``verify:<k>``
tasks over a dedicated supervised pool; results and counters merge
deterministically because per-pair outcomes are independent of batching.
The returned ``verify_time`` is the **sum of worker CPU seconds** (the
comparable quantity to a serial run's ``verify_time``);
``verify_wall_time`` in the stats dict is the elapsed stage time.

:class:`StreamVerifyPool` is the streaming engine's background
counterpart: its collection grows after the pool starts, so each
submission ships the bracket text of the trees it references.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.baselines.common import JoinPair, Verifier
from repro.errors import InvalidParameterError
from repro.obs.trace import NULL_TRACER
from repro.parallel import executor as _executor
from repro.parallel import worker as _worker
from repro.resilience import (
    FaultInjector,
    InjectedFaultError,
    PoolSupervisor,
    RetryPolicy,
    shutdown_pool,
    unseal,
)
from repro.tree.node import Tree

__all__ = [
    "CHUNKS_PER_WORKER",
    "StreamVerifyPool",
    "chunk_pairs",
    "parallel_verify",
]

# Chunks per worker: >1 so a chunk of expensive pairs (big trees, tight
# DPs) doesn't serialize the stage behind one process, small enough that
# per-chunk dispatch overhead stays negligible.
CHUNKS_PER_WORKER = 4

# Dead-worker handling in StreamVerifyPool: wait() is sliced so the pool's
# worker pids can be health-checked between slices (a crashed worker's
# result never arrives — without this a timeout-less drain() would block
# forever), and a detected death grants queued completions a short grace
# before the in-flight submissions degrade.
_WAIT_SLICE = 0.05
_DEATH_GRACE = 0.25

_ZERO_STATS = {
    "ted_calls": 0,
    "verify_time": 0.0,
    "lb_filtered": 0,
    "ub_accepted": 0,
    "ted_early_exits": 0,
    "verify_chunks": 0,
    "verify_wall_time": 0.0,
}


def chunk_pairs(
    pairs: Sequence[tuple[int, int]], workers: int
) -> list[tuple[tuple[int, int], ...]]:
    """Cut ``pairs`` into at most ``workers * CHUNKS_PER_WORKER`` batches.

    Contiguous slicing of the (caller-ordered) pair list; every pair lands
    in exactly one chunk and empty chunks are never produced.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if not pairs:
        return []
    chunk_count = min(len(pairs), workers * CHUNKS_PER_WORKER)
    size, leftover = divmod(len(pairs), chunk_count)
    chunks: list[tuple[tuple[int, int], ...]] = []
    cursor = 0
    for k in range(chunk_count):
        step = size + (1 if k < leftover else 0)
        chunks.append(tuple(pairs[cursor:cursor + step]))
        cursor += step
    return chunks


def _merge_chunk_results(
    outcomes: Sequence[tuple[list[tuple[int, int, int]], dict]],
    chunk_count: int,
    wall_time: float,
) -> tuple[list[JoinPair], dict]:
    pairs = [
        JoinPair(i, j, distance)
        for accepted, _ in outcomes
        for (i, j, distance) in accepted
    ]
    pairs.sort(key=lambda p: p.key())
    stats = dict(_ZERO_STATS)
    for _, delta in outcomes:
        for key in ("ted_calls", "lb_filtered", "ub_accepted", "ted_early_exits"):
            stats[key] += delta[key]
        stats["verify_time"] += delta["verify_time"]
    stats["verify_chunks"] = chunk_count
    stats["verify_wall_time"] = wall_time
    return pairs, stats


def parallel_verify(
    trees: Sequence[Tree],
    tau: int,
    pairs: Sequence[tuple[int, int]],
    workers: int,
    options: Optional[dict] = None,
) -> tuple[list[JoinPair], dict]:
    """Verify candidate ``(i, j)`` pairs across worker processes.

    Parameters
    ----------
    trees:
        The full collection (workers receive it once, via the pool
        initializer).
    tau:
        The join threshold.
    pairs:
        Candidate pairs of original indices, any orientation; duplicates
        (either orientation) are verified once.
    workers:
        Worker process count of the dedicated pool.
    options:
        Keyword arguments for each worker's ``Verifier`` (e.g.
        ``{"traversal_bound": False}`` for the STR join).

    The ``verify:<k>`` chunks run under a supervised pool created and
    torn down here, so every baseline's verification retries and
    degrades like the sharded executor's shards (``REPRO_FAULT_SPEC``
    applies).  Returns the accepted :class:`JoinPair` list in canonical
    order plus a stats dict (``ted_calls`` / ``verify_time`` /
    ``lb_filtered`` / ``ub_accepted`` / ``ted_early_exits`` /
    ``verify_chunks`` / ``verify_wall_time``, and any non-zero failure
    counters of the supervisor).
    """
    started = time.perf_counter()
    # Canonicalize: one orientation per pair, deterministic chunk layout
    # regardless of which method produced the list.
    ordered = sorted({(i, j) if i < j else (j, i) for i, j in pairs})
    if not ordered:
        return [], dict(_ZERO_STATS)

    def inline_chunk(chunk):
        # Degradation fallback: a fresh in-process Verifier; per-pair
        # outcomes and counter deltas match the worker's exactly (only
        # wall time differs), so merged totals stay serial-identical.
        return _worker.verify_pairs(
            Verifier(trees, tau, **(options or {})), chunk
        )

    chunks = chunk_pairs(ordered, workers)
    tasks = [(f"verify:{k}", chunk) for k, chunk in enumerate(chunks)]
    injector = FaultInjector.from_env()
    supervisor = PoolSupervisor(
        lambda: _executor._create_pool(
            trees, tau, workers, None, options, injector
        ),
    )
    with supervisor:
        outcomes = supervisor.run(
            _worker.verify_chunk_task, tasks, inline_chunk
        )
    pairs_out, stats = _merge_chunk_results(
        outcomes, len(chunks), time.perf_counter() - started
    )
    for key in ("retries", "worker_failures", "timeouts",
                "degraded_serial_tasks"):
        if supervisor.stats[key]:
            stats[key] = supervisor.stats[key]
    return pairs_out, stats


class StreamVerifyPool:
    """Background verification pool for streamed candidates.

    The batch pools above assume a complete collection shipped at pool
    start; a streaming join has no such collection, so this pool ships
    with each submission the bracket strings of exactly the trees its
    pairs reference.  Workers keep them in a per-process append-only
    store (:class:`repro.parallel.worker.GrowingTreeStore`) with one
    persistent :class:`~repro.baselines.common.Verifier`, so repeatedly
    referenced trees are parsed/annotated once per worker.

    Submissions run asynchronously; :meth:`poll` collects whatever has
    completed without blocking (the engine calls it on every arrival) and
    :meth:`drain` blocks until the pool is idle — the streaming *flush
    point*.  Because per-pair outcomes are independent of routing and
    batching, the union of collected triples is identical to inline
    verification of the same pairs, whatever the completion order.

    **Failure handling** — a submission whose worker crashes, raises,
    hangs past the policy's ``task_timeout``, or returns a corrupt
    envelope is *not* lost: it degrades to an in-process re-verification
    pair by pair (streaming favors latency over worker-level retries).
    A pair whose verification itself raises during that fallback is a
    *poison candidate*: it is quarantined — counted, logged, skipped —
    instead of aborting the batch.  A hang or crash also respawns the
    pool (a wedged worker would otherwise occupy a slot forever), which
    degrades the other in-flight submissions the same lossless way.
    """

    def __init__(
        self,
        tau: int,
        workers: int,
        policy: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
        tracer=None,
    ):
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.tau = tau
        self.workers = workers
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.policy = (policy or RetryPolicy()).validated()
        self._injector = (
            injector if injector is not None else FaultInjector.from_env()
        )
        self._pool = self._make_pool()
        self._known_pids = self._worker_pids()
        self._death_deadline: Optional[float] = None
        # (AsyncResult, pairs, task_id, deadline) per live submission.
        self._inflight: list = []
        # Master-side serialization cache: trees are immutable and
        # arrival-indexed, so a hot tree (a cluster member referenced by
        # many later submissions) pays to_bracket() exactly once.
        self._brackets: dict[int, str] = {}
        self._trees: Optional[Sequence[Tree]] = None
        self._fallback_verifier: Optional[Verifier] = None
        self._pending_pairs = 0
        self._chunks = 0
        self._seq = 0
        self._stats = dict(_ZERO_STATS)
        self._closed = False
        self.worker_failures = 0
        self.degraded_serial_tasks = 0
        self.quarantined_pairs = 0
        self.quarantine_log: list[dict] = []

    def _make_pool(self):
        return _executor.pool_context().Pool(
            processes=self.workers,
            initializer=_worker.init_stream_worker,
            initargs=(self.tau, self._injector),
        )

    def _worker_pids(self) -> frozenset:
        return frozenset(
            p.pid for p in getattr(self._pool, "_pool", []) or []
        )

    def _check_worker_health(self, now: float) -> None:
        """Start the death-grace clock when the pool's pid set changes.

        A dead worker's in-flight result will never arrive; the pool
        repopulates the slot (changing the pid set), which is the only
        signal a plain ``multiprocessing.Pool`` gives.  The grace lets
        already-queued completions surface before degradation.
        """
        pids = self._worker_pids()
        if pids != self._known_pids:
            self._known_pids = pids
            if self._death_deadline is None:
                self._death_deadline = now + _DEATH_GRACE

    @property
    def pending(self) -> int:
        """Submitted-but-uncollected candidate pairs (the queue depth)."""
        return self._pending_pairs

    def submit(
        self, pairs: Sequence[tuple[int, int]], trees: Sequence[Tree]
    ) -> None:
        """Queue candidate ``pairs`` for verification.

        ``trees`` is the live arrival-ordered collection; only the trees
        the pairs reference are serialized into the task payload.
        """
        if self._closed:
            raise InvalidParameterError("StreamVerifyPool is closed")
        if not pairs:
            return
        self._trees = trees
        referenced = {index for pair in pairs for index in pair}
        cache = self._brackets
        for index in referenced:
            if index not in cache:
                cache[index] = trees[index].to_bracket()
        brackets = {index: cache[index] for index in referenced}
        task_id = f"stream:{self._seq}"
        self._seq += 1
        result = self._pool.apply_async(
            _worker.verify_stream_chunk_task,
            ((task_id, brackets, tuple(pairs)),),
        )
        timeout = self.policy.task_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        self._inflight.append((result, tuple(pairs), task_id, deadline))
        self._pending_pairs += len(pairs)

    def _collect(self, outcome: tuple) -> list[tuple[int, int, int]]:
        accepted, delta = outcome
        for key in ("ted_calls", "lb_filtered", "ub_accepted", "ted_early_exits"):
            self._stats[key] += delta[key]
        self._stats["verify_time"] += delta["verify_time"]
        if self._tracer.enabled and delta.get("spans"):
            self._tracer.graft(delta["spans"])
        self._chunks += 1
        return accepted

    def _degrade(self, pairs, task_id, error) -> list[tuple[int, int, int]]:
        """In-process re-verification of a failed submission.

        Poison pairs — those whose verification raises — are quarantined
        individually; every healthy pair still produces its exact
        outcome, so nothing but the poison itself is lost.
        """
        self.worker_failures += 1
        self.degraded_serial_tasks += 1
        if self._fallback_verifier is None:
            self._fallback_verifier = Verifier(self._trees, self.tau)
        verifier = self._fallback_verifier
        injector = self._injector
        accepted: list[tuple[int, int, int]] = []
        healthy: list[tuple[int, int]] = []
        for i, j in pairs:
            # Pair fault ids are canonical (lo:hi) regardless of the
            # submission orientation (streaming submits new-vs-old).
            lo, hi = (i, j) if i < j else (j, i)
            try:
                if injector is not None:
                    injector.fire(f"pair:{lo}:{hi}", 1)
                healthy.append((i, j))
            except InjectedFaultError as exc:
                self._quarantine(lo, hi, exc)
        for i, j in healthy:
            try:
                triples, delta = _worker.verify_pairs(verifier, [(i, j)])
            except Exception as exc:
                self._quarantine(i, j, exc)
                continue
            accepted.extend(triples)
            for key in ("ted_calls", "lb_filtered", "ub_accepted",
                        "ted_early_exits"):
                self._stats[key] += delta[key]
            self._stats["verify_time"] += delta["verify_time"]
        self._chunks += 1
        return accepted

    def _quarantine(self, i: int, j: int, error: Exception) -> None:
        self.quarantined_pairs += 1
        if len(self.quarantine_log) < 32:
            self.quarantine_log.append(
                {"pair": [i, j], "error": str(error)}
            )

    def _respawn(self) -> list[tuple[int, int, int]]:
        """Replace the pool; degrade every submission it still held."""
        shutdown_pool(self._pool)
        self._pool = self._make_pool()
        self._known_pids = self._worker_pids()
        self._death_deadline = None
        triples: list[tuple[int, int, int]] = []
        for result, pairs, task_id, _ in self._inflight:
            if result.ready():
                # Its outcome survived the teardown — use it.
                triples.extend(self._settle(result, pairs, task_id))
            else:
                triples.extend(self._degrade(pairs, task_id, "pool respawned"))
                self._pending_pairs -= len(pairs)
        self._inflight = []
        return triples

    def _settle(self, result, pairs, task_id) -> list[tuple[int, int, int]]:
        """Collect one *ready* submission, degrading it on any failure."""
        try:
            outcome = unseal(result.get(), task_id)
        except Exception as exc:
            collected = self._degrade(pairs, task_id, exc)
        else:
            collected = self._collect(outcome)
        self._pending_pairs -= len(pairs)
        return collected

    def poll(self) -> list[tuple[int, int, int]]:
        """Accepted triples of every completed submission; never blocks.

        A submission past its deadline, or held by a worker that died
        (pid health-check), is treated as failed: it degrades in-process
        and the pool is respawned, taking the remaining in-flight
        submissions down the same degradation path — nothing is lost,
        nothing blocks.
        """
        now = time.monotonic()
        if self._inflight:
            self._check_worker_health(now)
        triples: list[tuple[int, int, int]] = []
        still_inflight = []
        failed = False
        for entry in self._inflight:
            result, pairs, task_id, deadline = entry
            if result.ready():
                triples.extend(self._settle(result, pairs, task_id))
            elif deadline is not None and now >= deadline:
                triples.extend(self._degrade(pairs, task_id, "task timeout"))
                self._pending_pairs -= len(pairs)
                failed = True
            else:
                still_inflight.append(entry)
        self._inflight = still_inflight
        if (
            self._death_deadline is not None
            and now >= self._death_deadline
            and self._inflight
        ):
            # A worker died and its grace ran out: whatever is still
            # pending cannot be trusted to arrive.
            failed = True
        if failed:
            triples.extend(self._respawn())
        elif not self._inflight:
            # Every submission settled; a stale death-grace clock (the
            # dead worker held nothing of ours) must not outlive it.
            self._death_deadline = None
        return triples

    def drain(self) -> list[tuple[int, int, int]]:
        """Block until every submission settles; return their triples.

        The wait is always bounded: a finite ``task_timeout`` caps each
        submission, and even without one the sliced wait health-checks
        the worker pids — a crashed worker's submission degrades
        in-process (and the pool respawns) instead of blocking forever.
        Only a genuinely *hung* worker with no ``task_timeout`` can
        stall drain; that detection fundamentally requires a deadline.
        """
        triples: list[tuple[int, int, int]] = []
        while self._inflight:
            result, pairs, task_id, deadline = self._inflight.pop(0)
            reason = "task timeout"
            while not result.ready():
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    break
                if (
                    self._death_deadline is not None
                    and now >= self._death_deadline
                ):
                    reason = "worker process died"
                    break
                self._check_worker_health(now)
                result.wait(_WAIT_SLICE)
            if result.ready():
                triples.extend(self._settle(result, pairs, task_id))
            else:
                triples.extend(self._degrade(pairs, task_id, reason))
                self._pending_pairs -= len(pairs)
                triples.extend(self._respawn())
        self._death_deadline = None
        return triples

    def stats(self) -> dict:
        """Accumulated verification counters of the collected chunks."""
        stats = dict(self._stats)
        stats["verify_chunks"] = self._chunks
        stats.pop("verify_wall_time", None)
        stats["verify_failures"] = self.worker_failures
        stats["degraded_serial_tasks"] = self.degraded_serial_tasks
        stats["quarantined_pairs"] = self.quarantined_pairs
        return stats

    def close(self) -> None:
        """Release the worker processes (pending work is abandoned).

        The terminate/join is bounded (:func:`repro.resilience.shutdown_pool`),
        so a wedged worker cannot hang engine close.
        """
        if self._closed:
            return
        self._closed = True
        shutdown_pool(self._pool)
