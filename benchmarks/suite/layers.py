"""The traced run: per-layer numbers, timed from outside the program.

Every workload's traced run replays PartSJ's serial join over the
workload's trees (for stream-mixed: in arrival order) through the
layers' public calls, one span per layer boundary:

- parse (``tree.bracket``): ``Tree.from_bracket`` per line;
- prepare (``session``, ``core.treecache``, ``core.intern``):
  ``col.sorted``, then ``col.cache(i)`` for every partitionable tree;
- partition (``core.partition``): ``col.prepare(tau)``, caches warm;
- the join loop, in ascending size order: index insert
  (``ShardDriver.insert``), probe (``ShardDriver.probe`` plus the
  driver's counters), the verify screen (``Verifier.features`` on a
  tree's first touch, forcing its label/degree bags; ``Verifier.verify``
  calls that ran no DP) and the exact DP (``Verifier.verify`` calls in
  which ``stats_ted_calls`` moved);
- persist (``persist.snapshot``): ``col.save`` of a sidecar, and
  ``TreeCollection.load`` of it over the parsed trees.  It runs after
  the loop so its garbage cannot be collected inside the loop.

The replayed pairs and distances must equal ``JoinPlan.run()`` bit for
bit; two untraced ``JoinPlan.run()`` calls on equally prepared sessions
give that reference and the ``trace.overhead`` base.  ``other.s`` is
the replay's wall minus every layer's time.

The tier a workload adds on top is traced too, and reported as the
``TIER_METRICS`` of ``common``: verify-heavy-w2 times ``plan_shards``
and reads the spans of a ``join(tau, workers=2).run(trace=Tracer())``;
stream-mixed runs one rep of its stream loop with a tracer attached.
Nothing under ``src`` is changed; all spans, the replay's and the
program's own, are written with ``repro.obs.export.write_jsonl`` so
``python -m repro trace FILE`` renders them.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.baselines.common import JoinPair, Verifier
from repro.core.join import PartSJConfig, ShardDriver
from repro.core.partition import min_partitionable_size
from repro.obs.export import write_jsonl
from repro.obs.trace import Tracer
from repro.parallel.sharding import plan_shards
from repro.session import TreeCollection
from repro.stream.engine import StreamingJoin
from repro.tree.node import Tree

import common
import workloads

LAYER_TIMES = (
    "parse.s", "prepare.sort.s", "prepare.treecache.s", "partition.s",
    "persist.save.s", "persist.load.s", "index.insert.s", "probe.s",
    "verify.features.s", "verify.bound.s", "verify.dp.s",
)


def _reference_join(lines, tau):
    """An untimed-prepared session's ``JoinPlan.run()``: (wall, pairs)."""
    col = TreeCollection.from_trees([Tree.from_bracket(l) for l in lines])
    col.prepare(tau)
    gc.collect()
    started = time.perf_counter()
    result = col.join(tau).run()
    return time.perf_counter() - started, result.pairs


def _force_features(verifier, index) -> None:
    # Every verify of a probe candidate reads the label and degree bags
    # (one scan fills both).  The branch bag and traversal tuples are
    # only built for pairs that pass the cheaper bounds, so forcing them
    # would add work the join never does; they stay lazy and land in the
    # bound or DP time of the first verify that needs them.
    verifier.features(index).label_bag


def replay(lines, path, scratch, tau, tracer) -> tuple[dict, list]:
    """The serial join, layer by layer; returns (metrics, pairs)."""
    m = {}
    config = PartSJConfig().resolved()
    with tracer.span("replay", trees=len(lines)) as root:
        with tracer.span("parse") as span:
            trees = [Tree.from_bracket(line) for line in lines]
        m["parse.s"] = span.duration
        col = TreeCollection.from_trees(trees)
        with tracer.span("prepare.sort") as span:
            col.sorted
        m["prepare.sort.s"] = span.duration
        min_size = min_partitionable_size(tau)
        with tracer.span("prepare.treecache") as span:
            for i, tree in enumerate(col.trees):
                if tree.size >= min_size:
                    col.cache(i)
        m["prepare.treecache.s"] = span.duration
        with tracer.span("partition") as span:
            prep = col.prepare(tau, config)
        m["partition.s"] = span.duration
        # The reference join starts from a fresh collector too; the
        # collection's time is part of other.s.
        gc.collect()

        probe_s = insert_s = features_s = bound_s = dp_s = 0.0
        candidates = 0
        touched = set()
        pairs = []
        clock = time.perf_counter
        with tracer.span("join.loop") as loop:
            driver = ShardDriver(col.trees, tau, config,
                                 prepared=prep.join_state())
            verifier = Verifier(col.trees, tau, caches=col.verifier_caches,
                                backend=config.backend)
            order = col.sorted
            for position in range(len(order)):
                i = order.original_index(position)
                t0 = clock()
                found = driver.probe(i)
                t1 = clock()
                driver.insert(i)
                t2 = clock()
                probe_s += t1 - t0
                insert_s += t2 - t1
                candidates += len(found)
                for j in found:
                    for k in (i, j):
                        if k not in touched:
                            touched.add(k)
                            t0 = clock()
                            _force_features(verifier, k)
                            features_s += clock() - t0
                    calls = verifier.stats_ted_calls
                    t0 = clock()
                    distance = verifier.verify(i, j)
                    elapsed = clock() - t0
                    if verifier.stats_ted_calls != calls:
                        dp_s += elapsed
                    else:
                        bound_s += elapsed
                    if distance is not None:
                        lo, hi = (i, j) if i < j else (j, i)
                        pairs.append(JoinPair(lo, hi, distance))
            pairs.sort(key=lambda p: p.key())
            counters = driver.counters
            tracer.record("index.insert", insert_s,
                          entries=driver.index.total_entries)
            tracer.record("probe", probe_s, hits=counters.probe_hits,
                          candidates=candidates)
            tracer.record("verify.features", features_s, trees=len(touched))
            tracer.record("verify.bound", bound_s,
                          rejects=verifier.stats_lb_filtered)
            tracer.record("verify.dp", dp_s, calls=verifier.stats_ted_calls)
        sidecar = scratch / "replay.repro-idx"
        with tracer.span("persist.save") as span:
            col.save(sidecar, include_trees=False, source=path)
        m["persist.save.s"] = span.duration
        with tracer.span("persist.load") as span:
            TreeCollection.load(sidecar, trees=trees)
        m["persist.load.s"] = span.duration
    m.update({
        "index.insert.s": insert_s,
        "probe.s": probe_s,
        "verify.features.s": features_s,
        "verify.bound.s": bound_s,
        "verify.dp.s": dp_s,
        "parse.trees": len(trees),
        "partition.subgraphs": prep.describe()["subgraphs"],
        "index.entries": driver.index.total_entries,
        "probe.calls": len(order),
        "probe.hits": counters.probe_hits,
        "probe.match_tests": counters.match_tests,
        "probe.match_hits": counters.match_hits,
        "probe.dedup_skips": counters.dedup_skips,
        "probe.candidates": candidates,
        "probe.match_rate": counters.match_hits / max(counters.match_tests, 1),
        "verify.bound_rejects": verifier.stats_lb_filtered,
        "verify.ub_accepts": verifier.stats_ub_accepted,
        "verify.dp_calls": verifier.stats_ted_calls,
        "verify.dp_early_exits": verifier.stats_ted_early_exits,
        "verify.results": len(pairs),
        "verify.dp_yield": len(pairs) / max(verifier.stats_ted_calls, 1),
        "trace.wall.s": root.duration,
        "join.loop.s": loop.duration,
    })
    m["other.s"] = root.duration - sum(m[name] for name in LAYER_TIMES)
    return m, pairs


def trace_pool(path, tau, tracer, reference) -> tuple[dict, bool]:
    """verify-heavy-w2's tier: shard plan and the pool's own spans."""
    workers = workloads.POOL_WORKERS
    col = TreeCollection.from_file(path, sidecar=None)
    sorted_view = col.sorted
    started = time.perf_counter()
    plans = plan_shards(sorted_view, tau, workers)
    plan_s = time.perf_counter() - started
    first = len(tracer.spans)
    result = col.join(tau, workers=workers).run(trace=tracer)
    spans = tracer.spans[first:]

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    shard_walls = [s.duration for s in spans if s.name.startswith("shard:")]
    chunks = [s.duration for s in spans if s.name == "verify.chunk"]
    verify_wall = total("verify.parallel")
    metrics = {
        "parallel.plan.s": plan_s,
        "parallel.shards": len(plans),
        "parallel.band_trees": sum(len(plan.band) for plan in plans),
        "parallel.candidates_wall.s": total("parallel.candidates"),
        "parallel.shard_imbalance": (
            max(shard_walls) / (sum(shard_walls) / len(shard_walls))
            if shard_walls else 1.0
        ),
        "parallel.verify_wall.s": verify_wall,
        "parallel.verify_cpu.s": sum(chunks),
        "parallel.verify_efficiency": (
            sum(chunks) / (verify_wall * workers) if verify_wall else 0.0
        ),
        "parallel.verify_chunks": len(chunks),
        "parallel.retries": result.stats.extra.get("retries", 0),
    }
    return metrics, result.pairs == reference


def trace_stream(inputs, scratch, tau, tracer, reference) -> tuple[dict, bool]:
    """stream-mixed's tier: one stream rep, engine and WAL traced."""
    wal = workloads.write_prefix_log(inputs, scratch / "trace.wal")
    first = len(tracer.spans)
    engine = StreamingJoin.recover(str(wal), fsync="batch", tracer=tracer)
    arrivals, searches = workloads.feed_arrivals(engine, inputs)
    engine.flush()
    stats = engine.stats()
    same = engine.results() == reference
    engine.close()
    spans = tracer.spans[first:]

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    metrics = {
        "stream.add.s": sum(add for _, add in arrivals),
        "stream.verify.s": stats.verify_time,
        "stream.candidates": stats.candidates,
        "stream.reverse_candidates": stats.reverse_candidates,
        "stream.flush.s": total("stream.flush"),
        "wal.append.s": total("wal.append"),
        "wal.sync.s": total("wal.sync"),
        "search.s": sum(seconds for seconds, _ in searches),
        "search.hits": sum(len(hits) for _, hits in searches),
    }
    return metrics, same


def traced_run(workload, seed, scale, scratch, trace_path) -> dict:
    """The per-layer run of ``workload``; writes its spans to ``trace_path``."""
    tau = common.TAU
    inputs = workloads.make_inputs(workload, seed, scale, scratch)
    outcome = workloads.Outcome()
    tracer = Tracer()
    metrics = {}
    digests = {}
    committed = workloads.expected_digests(workload, seed, scale).get("pairs")

    def body():
        ref_wall, ref_pairs = _reference_join(inputs.lines, tau)
        gc.collect()
        layer, pairs = replay(inputs.lines, inputs.path, scratch, tau, tracer)
        gc.collect()
        ref_wall2, ref_pairs2 = _reference_join(inputs.lines, tau)
        outcome.check(pairs == ref_pairs == ref_pairs2,
                      "replayed pairs differ from JoinPlan.run()")
        digests["pairs"] = common.pairs_digest(pairs)
        if committed is not None:
            outcome.check(digests["pairs"] == committed,
                          "pairs differ from the committed default-seed digest")
        layer["trace.overhead"] = (
            layer.pop("join.loop.s") / statistics.median([ref_wall, ref_wall2])
        )
        metrics.update(layer)
        if workload == "verify-heavy-w2":
            tier, same = trace_pool(inputs.path, tau, tracer, pairs)
            outcome.check(same, "traced workers=2 join differs from serial")
            metrics.update(tier)
        elif workload == "stream-mixed":
            tier, same = trace_stream(inputs, scratch, tau, tracer, pairs)
            outcome.check(same, "traced stream differs from the batch join")
            metrics.update(tier)

    # Ops: two reference joins and the replay, each a set-up plus a join;
    # the tiers add their join, or their arrivals and searches.
    ops = 6
    if workload == "verify-heavy-w2":
        ops += 2
    elif workload == "stream-mixed":
        ops += 1 + len(inputs.lines) - inputs.prefix + len(inputs.queries)
    outcome.rep(ops, body)
    write_jsonl(tracer.spans, trace_path)
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": metrics,
        "trace_file": str(trace_path),
        "spans": len(tracer.spans),
        "digests": digests,
    }
