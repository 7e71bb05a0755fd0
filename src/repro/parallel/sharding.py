"""Shard planning for the multiprocess join executor.

The size-sorted probe/insert loop of Algorithm 1 only ever looks
*backwards*: tree ``Ti`` probes index sizes ``[|Ti| - tau, |Ti|]``.  The
size axis can therefore be cut into contiguous *shards* of the sorted
order, each processed by an independent :class:`~repro.core.join.ShardDriver`
in its own worker process, provided every shard first bulk-inserts its
**handoff band** — the maximal run of earlier trees whose size is within
``tau`` of the shard's smallest owned size.  Band trees are insert-only
(never probed by their band shard), so every candidate pair is discovered
exactly once, by the shard owning the later tree of the sorted order
(see the invariant write-up in :mod:`repro.core.join`).

Planning balances shards by *estimated probe cost*, computed from the
collection's cached size histogram
(:meth:`repro.baselines.common.SizeSortedCollection.size_histogram`):
probing one tree touches each of its nodes against ``tau + 1`` index
sizes and partitioning it is linear again, so a tree of size ``s`` is
charged ``s * (tau + 2)`` units.  Boundaries may fall *inside* a run of
equal-size trees — the handoff band simply includes the earlier trees of
the same size — which keeps the plan balanced even for degenerate
collections where every tree has the same size.

The ``ShardPlan -> ShardResult`` pair is the executor's worker protocol:
a plan is what crosses the process boundary going in (index lists plus
bounds — the trees themselves travel once, via the pool initializer), a
result is what comes back (the shard's verified result triples plus the
per-shard statistics the executor merges deterministically).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.common import SizeSortedCollection

__all__ = [
    "ShardPlan",
    "ShardResult",
    "estimated_probe_cost",
    "plan_shards",
]


def estimated_probe_cost(size: int, tau: int) -> int:
    """Planning cost of one tree: probe ``tau + 1`` sizes plus partition.

    Probing visits every node once per probed index size (``tau + 1`` of
    them) and the insert phase (MaxMinSize + extraction) is linear in the
    tree again; constant factors cancel in the balance, so the model is
    simply ``size * (tau + 2)``.
    """
    return size * (tau + 2)


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice of the size-sorted loop.

    Attributes
    ----------
    shard_id:
        Dense shard number, ``0`` = smallest sizes.
    start, stop:
        Owned sorted-position range ``[start, stop)`` in the collection's
        ascending order.
    band_start:
        First band sorted position; the band is ``[band_start, start)``
        and is empty for the first shard.
    lo, hi:
        Smallest / largest owned tree size (reporting; boundaries may
        split a run of equal sizes, in which case a neighbour shard owns
        trees of size ``lo`` too).
    owned:
        Original tree indices to probe+insert, ascending sorted order.
    band:
        Original tree indices to insert only (handoff band), ascending
        sorted order — every earlier tree whose size is ``>= lo - tau``.
    est_cost:
        Estimated probe cost of the owned trees (balance diagnostics).
    """

    shard_id: int
    start: int
    stop: int
    band_start: int
    lo: int
    hi: int
    owned: tuple[int, ...]
    band: tuple[int, ...]
    est_cost: int


@dataclass
class ShardResult:
    """What one shard worker sends back to the executor.

    ``pairs`` holds the shard's accepted ``(i, j, distance)`` triples
    (``i < j``, discovery order); ``candidates`` counts the pairs its
    owned trees sent to verification.  All timing fields are
    worker-process CPU seconds.  ``counters`` is the shard's
    ``_ProbeCounters.as_dict()`` plus its verifier counters
    (``ted_calls`` and :meth:`~repro.baselines.common.Verifier.extra_stats`)
    — owned-tree counters sum to the exact serial values across shards,
    band counters measure the sharding overhead.  The executor merges the
    counter dict *generically* (every integer-valued key is summed), so a
    worker may add counters without an executor release in lockstep.

    ``spans`` relays the shard's observability spans
    (:func:`repro.obs.trace.span_dict` mappings) back through the CRC'd
    result envelope; the coordinator grafts them into its trace when
    tracing is enabled and drops them otherwise.  They never feed any
    ``JoinStats`` field, so results stay bit-identical either way.
    """

    shard_id: int
    pairs: list[tuple[int, int, int]]
    candidates: int
    counters: dict
    probe_time: float
    index_time: float
    band_time: float
    verify_time: float
    wall_time: float
    index_entries: int
    owned_count: int
    band_count: int
    lo: int
    hi: int
    spans: list = field(default_factory=list)

    def timing_summary(self) -> dict:
        """Per-shard timing dict surfaced in ``JoinStats.extra['shards']``."""
        return {
            "shard": self.shard_id,
            "size_range": [self.lo, self.hi],
            "owned_trees": self.owned_count,
            "band_trees": self.band_count,
            "candidates": self.candidates,
            "results": len(self.pairs),
            "probe_time": round(self.probe_time, 6),
            "index_time": round(self.index_time, 6),
            "band_time": round(self.band_time, 6),
            "verify_time": round(self.verify_time, 6),
            "wall_time": round(self.wall_time, 6),
        }


def plan_shards(
    collection: "SizeSortedCollection",
    tau: int,
    workers: int,
) -> list[ShardPlan]:
    """Cut the size-sorted order into at most ``workers`` balanced shards.

    Walks the cached size histogram accumulating estimated probe cost and
    closes a shard whenever the running total reaches the next of the
    ``workers`` equal cost targets.  Every shard owns at least one tree;
    when the collection has fewer trees than ``workers`` the plan simply
    has fewer shards.  The concatenated ``owned`` runs reproduce the
    collection's sorted order exactly.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")
    total_trees = len(collection)
    if total_trees == 0:
        return []
    histogram = collection.size_histogram()
    total_cost = sum(
        count * estimated_probe_cost(size, tau) for size, count in histogram
    )
    shard_count = min(workers, total_trees)
    target = total_cost / shard_count

    # Owned boundaries: positions [boundaries[k], boundaries[k+1]) per shard.
    boundaries = [0]
    accumulated = 0.0
    position = 0
    for size, count in histogram:
        per_tree = estimated_probe_cost(size, tau)
        remaining = count
        while remaining:
            shards_left = shard_count - len(boundaries)
            if shards_left <= 0:
                position += remaining
                break
            # Trees of this size still needed to reach the current target;
            # boundaries may split the run (the band covers the remainder).
            next_target = target * len(boundaries)
            deficit = next_target - accumulated
            take = max(1, min(remaining, round(deficit / per_tree)))
            accumulated += take * per_tree
            position += take
            remaining -= take
            if accumulated >= next_target - per_tree / 2:
                boundaries.append(position)
    if boundaries[-1] < total_trees:
        boundaries.append(total_trees)
    else:
        boundaries[-1] = total_trees

    sizes = collection.sizes
    order = collection.order
    plans: list[ShardPlan] = []
    for shard_id in range(len(boundaries) - 1):
        start, stop = boundaries[shard_id], boundaries[shard_id + 1]
        if start >= stop:
            continue  # degenerate boundary: never emit an empty shard
        lo = sizes[start]
        hi = sizes[stop - 1]
        band_start = bisect_left(sizes, lo - tau, 0, start)
        plans.append(
            ShardPlan(
                shard_id=len(plans),
                start=start,
                stop=stop,
                band_start=band_start,
                lo=lo,
                hi=hi,
                owned=tuple(order[start:stop]),
                band=tuple(order[band_start:start]),
                est_cost=sum(
                    estimated_probe_cost(sizes[p], tau) for p in range(start, stop)
                ),
            )
        )
    return plans
