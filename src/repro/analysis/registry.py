"""The committed counter registry: every stats/metrics name, declared once.

PRs 1–9 grew three name-keyed surfaces that exporters, ``explain()``,
docs and dashboards all read:

- integer/float counters written into ``JoinStats.extra``,
- counters written into ``StreamStats`` / ``StreamStats.extra``,
- Prometheus metric family names emitted by :mod:`repro.obs`.

Nothing enforced that a key written in one module matched the key read
in another — a typo ships silently and a dashboard goes blank.  This
module is the single source of truth: the ``counter-registry`` lint rule
(:mod:`repro.analysis.rules.counters`) fails any write of an unregistered
key or family name.

Keep this module **pure data** (the linter imports it; the library never
does, and it must never import back into the engine).
"""

from __future__ import annotations

__all__ = [
    "JOIN_EXTRA_COUNTERS",
    "STREAM_EXTRA_COUNTERS",
    "EXTRA_COUNTER_KEYS",
    "METRIC_FAMILIES",
]

# -- JoinStats.extra ---------------------------------------------------------
# Written by the serial driver (repro.core.join), the sharded executor
# (repro.parallel.executor), the verification layer
# (repro.baselines.common), the baselines and the session layer.
JOIN_EXTRA_COUNTERS: dict[str, str] = {
    # probe/insert loop (core.join._ProbeCounters.as_dict)
    "probe_hits": "indexed subgraphs whose depth-2 key (root twig plus "
                  "member grandchildren) equals a probe node's, within its "
                  "postorder window; nodes whose LC-RS subtree is smaller "
                  "than every probed subgraph are never visited, and a "
                  "stream's count includes the sizes above each arrival's",
    "match_tests": "probe hits tested, by the depth-3 screen and then the "
                   "structural matcher (screened ones included); same "
                   "scope as probe_hits",
    "match_hits": "structural matches that succeeded",
    "dedup_skips": "probe hits skipped because the pair was already checked",
    "screened": "tested probe hits the depth-3 screen rejected before the "
                "structural matcher",
    "small_pool_pairs": "pairs verified via the small-tree pool",
    "partitioned_trees": "trees partitioned into delta subgraphs",
    "small_trees": "trees below the partitionable floor",
    "subgraphs_built": "subgraphs extracted across the join",
    "gamma_total": "sum of chosen gammas (for average reporting)",
    "band_trees": "handoff-band trees re-partitioned at shard boundaries",
    "band_subgraphs": "subgraphs built for handoff-band trees",
    # index accounting (core.join / parallel.executor)
    "total_indexed_subgraphs": "subgraphs inserted into the two-layer index",
    "total_index_entries": "entries in the two-layer index",
    "shard_index_entries": "per-shard index entries summed across shards",
    # verification breakdown (baselines.common.Verifier.extra_stats)
    "lb_filtered": "candidate pairs rejected by a proven lower bound",
    "ub_accepted": "candidate pairs accepted by a proven upper bound",
    "ted_early_exits": "banded TED runs cut short by the early exit",
    "certified": "candidate pairs whose preorder alignment kept postorder "
                 "order, so its cost is the exact distance (no DP)",
    # PartSJ's sharded execution (parallel.executor); a serial join and a
    # baseline write none of these
    "workers": "worker processes the run used",
    "shards": "per-shard timing summaries (list)",
    "band_time": "handoff-band insert wall seconds summed across shards",
    "plan_time": "shard-planning wall seconds",
    "candidate_wall_time": "shard-stage wall seconds (filter plus verify)",
    # supervised-dispatch failure accounting (resilience.supervisor)
    "retries": "tasks re-dispatched after a failure",
    "worker_failures": "worker crashes, remote raises, corrupt envelopes",
    "timeouts": "tasks that exceeded the per-task deadline",
    "degraded_serial_tasks": "tasks re-executed serially after exhaustion",
    "pool_respawns": "pool replacements after a failed round",
    "fault_events": "per-event failure trail (list)",
    # session layer (repro.session)
    "prep_time": "preparation wall seconds folded into a cold run",
    "prep_reused": "whether the run reused a warm preparation (bool)",
    "cross_pairs": "R×S cross pairs kept after the merged self-join",
    "same_side_pairs_discarded": "same-side pairs dropped by the R×S filter",
    # baseline-specific funnels
    "banded": "STR join ran the threshold string-edit filter, not the full DP (bool)",
    "pruned_by_labels": "histogram join: pairs pruned by the label filter",
    "pruned_by_degrees": "histogram join: pairs pruned by the degree filter",
    "pruned_by_preorder": "STR join: pairs pruned by the preorder filter",
    "pruned_by_postorder": "STR join: pairs pruned by the postorder filter",
    "pruned_by_bib": "set join: pairs pruned by the binary-branch bound",
}

# -- StreamStats.extra -------------------------------------------------------
# Written by repro.stream.engine.
STREAM_EXTRA_COUNTERS: dict[str, str] = {
    "ted_calls": "banded TED DP runs: candidates no bound rejected and no "
                 "certificate decided",
    "quarantine_log": "recent quarantined-ingest error records (list)",
    "wal": "write-ahead log counters (nested dict)",
}

#: Every extra key a write site may use (the ``counter-registry`` rule's
#: acceptance set).  Registering here is a *declaration*: exporters and
#: ``explain()`` may rely on the name staying spelled exactly like this.
EXTRA_COUNTER_KEYS: frozenset[str] = frozenset(
    {**JOIN_EXTRA_COUNTERS, **STREAM_EXTRA_COUNTERS}
)

# -- Prometheus families (repro.obs.metrics / repro.cli) --------------------
METRIC_FAMILIES: dict[str, str] = {
    "repro_join_runs_total": "joins published to the registry",
    "repro_join_trees_total": "trees joined",
    "repro_join_candidates_total": "candidate pairs surviving filters",
    "repro_join_results_total": "result pairs within tau",
    "repro_join_ted_calls_total": "banded TED DP runs (uncertified, "
                                  "unrejected candidates)",
    "repro_join_pairs_considered_total": "pairs considered before filtering",
    "repro_join_phase_seconds": "per-join phase wall clock histogram",
    "repro_join_counter_total": "integer counters from JoinStats.extra",
    "repro_stream_snapshots_total": "stream snapshots published",
    "repro_stream_trees": "trees ingested at publish time",
    "repro_stream_results": "result pairs at publish time",
    "repro_stream_candidates": "candidate pairs generated",
    "repro_stream_index_entries": "live two-layer index entries",
    "repro_stream_quarantined_trees_total": "malformed arrivals quarantined",
    "repro_stream_wall_seconds": "streaming phase wall clock histogram",
    "repro_dataset_trees": "trees in the dataset file",
    "repro_dataset_size_min": "smallest tree (nodes)",
    "repro_dataset_size_max": "largest tree (nodes)",
    "repro_dataset_size_avg": "average tree size (nodes)",
    "repro_dataset_labels": "distinct node labels",
    "repro_dataset_depth_max": "maximum node depth (root = 0)",
}
