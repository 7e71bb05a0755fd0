"""Parallel verification: chunked candidate pairs through worker Verifiers.

Verification is embarrassingly parallel — each candidate pair's outcome
depends only on its two trees and ``tau`` — so the four baseline joins
hand their candidate lists to :func:`parallel_verify` (through
:class:`~repro.baselines.common.DeferredVerification`) and get back
exactly the pairs and exact distances a serial
:class:`~repro.baselines.common.Verifier` would produce: every method
runs the one verifier pipeline, so no configuration crosses the pool.
PartSJ does not come here: its shards verify their own
candidates (:mod:`repro.parallel.executor`).

Pairs are sorted into canonical order and cut into
``workers * CHUNKS_PER_WORKER`` chunks, dispatched as ``verify:<k>``
tasks over a dedicated supervised pool; results and counters merge
deterministically because per-pair outcomes are independent of batching.
The returned ``verify_time`` is the **sum of worker CPU seconds** (the
comparable quantity to a serial run's ``verify_time``);
``verify_wall_time`` in the stats dict is the elapsed stage time.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.baselines.common import JoinPair, Verifier
from repro.errors import InvalidParameterError
from repro.parallel import executor as _executor
from repro.parallel import worker as _worker
from repro.resilience import FaultInjector, PoolSupervisor
from repro.tree.node import Tree

__all__ = [
    "CHUNKS_PER_WORKER",
    "chunk_pairs",
    "parallel_verify",
]

# Chunks per worker: >1 so a chunk of expensive pairs (big trees, tight
# DPs) doesn't serialize the stage behind one process, small enough that
# per-chunk dispatch overhead stays negligible.
CHUNKS_PER_WORKER = 4

_ZERO_STATS = {
    **dict.fromkeys(Verifier.COUNTERS, 0),
    "verify_time": 0.0,
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
        for key in Verifier.COUNTERS:
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

    The ``verify:<k>`` chunks run under a supervised pool created and
    torn down here, so every baseline's verification retries and
    degrades like the sharded executor's shards (``REPRO_FAULT_SPEC``
    applies).  Returns the accepted :class:`JoinPair` list in canonical
    order plus a stats dict (every name of ``Verifier.COUNTERS``,
    ``verify_time``, ``verify_chunks`` and ``verify_wall_time``, and any
    non-zero failure counters of the supervisor).
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
        return _worker.verify_pairs(Verifier(trees, tau), chunk)

    chunks = chunk_pairs(ordered, workers)
    tasks = [(f"verify:{k}", chunk) for k, chunk in enumerate(chunks)]
    injector = FaultInjector.from_env()
    supervisor = PoolSupervisor(
        lambda: _executor._create_pool(trees, tau, workers, None, injector),
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

