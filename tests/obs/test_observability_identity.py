"""The observability invariant: tracing never changes results.

The acceptance bar of the obs layer — pairs, distances and every
deterministic ``JoinStats`` field are bit-identical with tracing on,
off, and under injected worker faults; traces actually cover the
execution (per-shard probe/index spans relayed from worker processes);
and the no-op tracer records nothing.
"""

import multiprocessing
import random

import pytest

from repro.core.join import PartSJConfig, partsj_join
from repro.obs.export import span_roots, write_jsonl, read_jsonl
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.executor import merge_counters
from repro.parallel.sharding import ShardResult
from repro.resilience import FaultInjector, RetryPolicy
from repro.session import TreeCollection
from tests.conftest import make_cluster_forest

METHODS = ("partsj", "str", "set", "histogram", "nested_loop")
TAUS = (1, 2)
WORKER_COUNTS = (1, 2)

# Deterministic JoinStats fields (times excluded: wall clocks differ
# run to run whether or not tracing is on).
STAT_FIELDS = ("method", "tau", "tree_count", "candidates", "results",
               "ted_calls", "pairs_considered")

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

CHAOS_POLICY = RetryPolicy(
    max_attempts=3, task_timeout=5.0, backoff_base=0.0, jitter=0.0
)


@pytest.fixture(scope="module")
def forest():
    rng = random.Random(17)
    return make_cluster_forest(
        rng, clusters=3, cluster_size=3, base_size=9, max_edits=2
    )


def triples(result):
    return [(p.i, p.j, p.distance) for p in result.pairs]


def deterministic_stats(stats) -> dict:
    """The comparable slice of JoinStats: counts plus integer counters."""
    fields = {name: getattr(stats, name) for name in STAT_FIELDS}
    fields["extra_counters"] = {
        key: value for key, value in sorted((stats.extra or {}).items())
        if isinstance(value, int) and not isinstance(value, bool)
    }
    return fields


def run_join(forest, method, tau, workers, trace=None):
    # A fresh collection per run: no result-cache or prepared-state
    # sharing between the traced and untraced executions under test.
    col = TreeCollection.from_trees(forest)
    return col.join(tau, method=method, workers=workers).run(trace=trace)


class TestTracedRunsAreBitIdentical:
    """Satellite: every method x tau x workers, tracing on == off."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("method", METHODS)
    def test_identity(self, forest, method, tau, workers):
        if workers > 1 and not HAVE_FORK:
            pytest.skip("worker pools need fork on this platform")
        untraced = run_join(forest, method, tau, workers)
        tracer = Tracer()
        traced = run_join(forest, method, tau, workers, trace=tracer)
        assert triples(traced) == triples(untraced)
        assert deterministic_stats(traced.stats) == \
            deterministic_stats(untraced.stats)
        # ... and the traced run really did trace.
        names = [span.name for span in tracer.finished()]
        assert "join" in names

    def test_span_data_never_reaches_stats(self, forest):
        """Structural leak check: no span-shaped keys in JoinStats."""
        tracer = Tracer()
        result = run_join(forest, "partsj", 1, 2 if HAVE_FORK else 1,
                          trace=tracer)
        assert "spans" not in (result.stats.extra or {})
        for key in (result.stats.extra or {}):
            assert "span" not in key


class TestTracedUnderFaults:
    """Tracing + injected worker faults still returns serial results."""

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork pools")
    @pytest.mark.parametrize("spec", [
        "shard:*@1=crash",
        "shard:*@1=crash,verify:*@1=crash",
    ])
    def test_fault_identity(self, forest, spec):
        serial = triples(partsj_join(forest, 1))
        tracer = Tracer()
        cfg = PartSJConfig(
            workers=2, retry=CHAOS_POLICY,
            fault_injector=FaultInjector.from_spec(spec),
        )
        result = partsj_join(forest, 1, cfg, tracer=tracer)
        assert triples(result) == serial
        assert result.stats.extra["retries"] >= 1
        # Retried shards still relay their spans from the attempt that
        # succeeded: coverage survives the chaos.
        names = [span.name for span in tracer.finished()]
        assert any(name.startswith("shard:") for name in names)

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork pools")
    def test_fault_spec_env_hook_identity(self, forest, monkeypatch):
        """Faults injected via REPRO_FAULT_SPEC, tracing on: same pairs."""
        from repro.resilience import FAULT_SPEC_ENV

        serial = triples(partsj_join(forest, 1))
        monkeypatch.setenv(FAULT_SPEC_ENV, "shard:*@1=crash")
        tracer = Tracer()
        result = partsj_join(
            forest, 1, PartSJConfig(workers=2, retry=CHAOS_POLICY),
            tracer=tracer,
        )
        assert triples(result) == serial
        assert result.stats.extra["retries"] >= 1
        assert any(s.name == "join" or s.name.startswith("shard:")
                   for s in tracer.finished())


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork pools")
class TestParallelTraceCoverage:
    """A traced workers=2 join covers every execution stage per shard."""

    def test_spans_cover_partition_probe_index_verify(self, forest, tmp_path):
        tracer = Tracer()
        result = run_join(forest, "partsj", 2, 2, trace=tracer)
        assert result.pairs  # the workload actually joins something
        spans = tracer.finished()
        names = [span.name for span in spans]
        shard_names = {n for n in names if n.startswith("shard:")}
        assert len(shard_names) >= 2
        for required in ("join", "parallel.plan", "parallel.candidates",
                         "partsj.probe", "partsj.index", "partsj.verify"):
            assert required in names, required
        # One stage: no verification spans outside the shards.
        assert not {"verify.parallel", "verify.chunk"} & set(names)
        # Every shard span carries worker-side probe, index and verify
        # children relayed through the sealed result envelope.
        for span in spans:
            if not span.name.startswith("shard:"):
                continue
            child_names = {
                s.name for s in spans if s.parent_id == span.span_id
            }
            assert {"partsj.probe", "partsj.index",
                    "partsj.verify"} <= child_names
            assert span.attrs.get("pid") is not None
        # Exported to JSONL, the parent ids form a well-rooted tree.
        path = tmp_path / "trace.jsonl"
        write_jsonl(spans, path)
        rows = read_jsonl(path)
        roots, _children = span_roots(rows)  # raises on a cycle
        assert [row["name"] for row in roots] == ["join"]
        assert all(row["trace_id"] == tracer.trace_id for row in rows)


class TestSerialTraceCoverage:
    def test_serial_partsj_loop_spans(self, forest):
        tracer = Tracer()
        run_join(forest, "partsj", 1, 1, trace=tracer)
        names = [span.name for span in tracer.finished()]
        for required in ("join", "partsj.loop", "partsj.probe",
                         "partsj.index", "partsj.verify"):
            assert required in names, required

    def test_search_span(self, forest):
        col = TreeCollection.from_trees(forest)
        tracer = Tracer()
        hits = col.search(forest[0], 1).run(trace=tracer)
        (span,) = [s for s in tracer.finished() if s.name == "search"]
        assert span.attrs["hits"] == len(hits)


class TestCacheSemantics:
    """Traced runs bypass the result-cache read but still store."""

    def test_untraced_hits_cache_traced_does_not(self, forest):
        col = TreeCollection.from_trees(forest)
        first = col.join(1).run()
        assert col.join(1).run() is first  # cache hit
        tracer = Tracer()
        traced = col.join(1).run(trace=tracer)
        assert traced is not first  # bypassed the read...
        assert triples(traced) == triples(first)  # ...bit-identically
        assert any(s.name == "join" for s in tracer.finished())
        # ...and the traced result landed in the cache for later reads.
        assert col.join(1).run() is traced


class TestNullTracerStaysEmpty:
    """The disabled path must leave no observable residue anywhere."""

    def test_untraced_runs_record_nothing(self, forest):
        run_join(forest, "partsj", 1, 1)
        assert NULL_TRACER.finished() == []
        assert NULL_TRACER.spans == []  # shared class-level list untouched

    def test_null_tracer_span_identity_on_hot_path(self):
        # One pre-allocated context manager: the per-call cost of a
        # disabled tracer is a method call returning a constant.
        assert NULL_TRACER.span("partsj.probe") is NULL_TRACER.span("x")


class TestGenericCounterMerge:
    """Satellite: executor merges JoinStats.extra counters generically."""

    @staticmethod
    def shard_result(shard_id, counters):
        return ShardResult(
            shard_id=shard_id, pairs=[], candidates=0, counters=counters,
            probe_time=0.0, index_time=0.0, band_time=0.0, verify_time=0.0,
            wall_time=0.0, index_entries=0, owned_count=0, band_count=0,
            lo=0, hi=0,
        )

    def test_worker_only_counter_merges_without_executor_edit(self):
        merged = merge_counters([
            self.shard_result(0, {"probe_hits": 2, "new_counter": 5}),
            self.shard_result(1, {"probe_hits": 3}),
        ])
        assert merged == {"probe_hits": 5, "new_counter": 5}

    def test_non_integers_and_bools_skipped(self):
        merged = merge_counters([
            self.shard_result(0, {
                "probe_hits": 1, "ratio": 0.5, "flag": True, "name": "x",
            }),
        ])
        assert merged == {"probe_hits": 1}

    @pytest.mark.skipif(not HAVE_FORK, reason="fork propagates the patch")
    def test_live_worker_counter_reaches_join_stats(self, forest, monkeypatch):
        """A counter added worker-side lands summed in JoinStats.extra.

        Fork start method: pool children inherit the parent's patched
        module, so the instrumented ``execute_shard`` runs in-worker.
        """
        import repro.parallel.worker as worker_mod

        real = worker_mod.execute_shard

        def instrumented(trees, tau, config, plan):
            result = real(trees, tau, config, plan)
            result.counters["obs_test_marker"] = 1
            return result

        monkeypatch.setattr(worker_mod, "execute_shard", instrumented)
        result = partsj_join(forest, 1, PartSJConfig(workers=2))
        assert result.stats.extra.get("obs_test_marker", 0) >= 2


class TestMetricsAutoPublish:
    def test_every_executed_join_publishes(self, forest):
        mine = MetricsRegistry()
        old = set_registry(mine)
        try:
            run_join(forest, "str", 1, 1)
        finally:
            set_registry(old)
        snap = mine.snapshot()
        (key,) = snap["repro_join_runs_total"]
        assert dict(key)["tau"] == "1"
        assert snap["repro_join_runs_total"][key] == 1

    def test_cache_hits_do_not_republish(self, forest):
        mine = MetricsRegistry()
        old = set_registry(mine)
        try:
            col = TreeCollection.from_trees(forest)
            col.join(1).run()
            col.join(1).run()  # served from the session cache
        finally:
            set_registry(old)
        (key,) = mine.snapshot()["repro_join_runs_total"]
        assert mine.snapshot()["repro_join_runs_total"][key] == 1


class TestExplainObservability:
    def test_every_plan_kind_reports_observability(self, forest):
        col = TreeCollection.from_trees(forest)
        plans = {
            "join": col.join(1),
            "baseline": col.join(1, method="str"),
            "search": col.search(forest[0], 1),
            "stream": col.stream(1),
        }
        for kind, plan in plans.items():
            section = plan.explain().get("observability")
            assert section, kind
            assert "span_names" in section and section["span_names"], kind
            assert "metrics" in section, kind

    def test_parallel_join_lists_shard_spans(self, forest):
        col = TreeCollection.from_trees(forest)
        section = col.join(1, workers=2).explain()["observability"]
        assert any("shard" in name for name in section["span_names"])
