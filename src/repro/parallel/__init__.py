"""``repro.parallel``: the sharded multiprocess join executor.

Scales the size-sorted join loop across worker processes while keeping
results bit-identical to the serial engine:

- :mod:`~repro.parallel.sharding` — cost-balanced shard planning over the
  collection's size histogram, with the tau-wide handoff band that makes
  shards independent (``ShardPlan`` / ``ShardResult`` protocol);
- :mod:`~repro.parallel.executor` — pool lifecycle and the one
  supervised stage in which every shard probes, inserts and verifies its
  own trees, plus the deterministic stats merge;
- :mod:`~repro.parallel.verify_pool` — the baselines' chunked parallel
  verification;
- :mod:`~repro.parallel.worker` — per-process state (the inherited
  ``Tree`` list, a persistent ``Verifier`` for verify chunks) and the
  task functions.

It serves batch joins only: a stream verifies inline, in its own
process.  Entry points: ``TreeCollection.join(..., workers=N)`` (and
``join_with``), ``PartSJConfig(workers=N)``, or the CLI's
``join --workers`` and ``experiment --workers``.
"""

from repro.parallel.executor import parallel_partsj_join
from repro.parallel.sharding import (
    ShardPlan,
    ShardResult,
    estimated_probe_cost,
    plan_shards,
)
from repro.parallel.verify_pool import chunk_pairs, parallel_verify

__all__ = [
    "ShardPlan",
    "ShardResult",
    "estimated_probe_cost",
    "plan_shards",
    "parallel_partsj_join",
    "chunk_pairs",
    "parallel_verify",
]
