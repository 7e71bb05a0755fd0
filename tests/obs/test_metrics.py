"""Unit tests for :mod:`repro.obs.metrics`: registry and stats publishers."""

import pytest

from repro.baselines.common import JoinStats
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    publish_join_stats,
    publish_stream_stats,
    set_registry,
)
from repro.stream.engine import StreamingJoin, StreamStats
from tests.stream.test_streaming_join import make_stream_workload


class TestRegistry:
    def test_counter_only_goes_up(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6

    def test_histogram_buckets_and_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(2.55)
        assert hist.cumulative() == [1, 2, 3]

    def test_same_labels_return_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("c_total", method="partsj", tau=1)
        b = reg.counter("c_total", tau=1, method="partsj")  # order-insensitive
        assert a is b
        assert reg.counter("c_total", method="str", tau=1) is not a

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("name")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("name")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", k="v").inc(2)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["c_total"][(("k", "v"),)] == 2
        assert snap["h"][()] == {"sum": 0.5, "count": 1}

    def test_reset_clears_families(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.reset()
        assert reg.families() == []

    def test_default_registry_swap_and_restore(self):
        mine = MetricsRegistry()
        old = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(old)
        assert get_registry() is old


def make_join_stats(**extra):
    stats = JoinStats(method="PRT", tau=2, tree_count=10)
    stats.candidates = 7
    stats.results = 3
    stats.ted_calls = 5
    stats.pairs_considered = 20
    stats.probe_time = 0.01
    stats.index_time = 0.02
    stats.candidate_time = 0.03
    stats.verify_time = 0.04
    stats.extra = {"probe_hits": 11, "prep_reused": False,
                   "prep_time": 0.5, **extra}
    return stats


class TestPublishJoinStats:
    def test_counters_and_labels(self):
        reg = MetricsRegistry()
        publish_join_stats(make_join_stats(), registry=reg)
        snap = reg.snapshot()
        key = (("method", "PRT"), ("tau", "2"))
        assert snap["repro_join_runs_total"][key] == 1
        assert snap["repro_join_trees_total"][key] == 10
        assert snap["repro_join_candidates_total"][key] == 7
        assert snap["repro_join_results_total"][key] == 3
        assert snap["repro_join_ted_calls_total"][key] == 5
        assert snap["repro_join_pairs_considered_total"][key] == 20

    def test_phase_histograms_observe_each_wall(self):
        reg = MetricsRegistry()
        publish_join_stats(make_join_stats(), registry=reg)
        phases = {
            dict(key)["phase"]
            for key in reg.snapshot()["repro_join_phase_seconds"]
        }
        assert phases == {"candidate", "verify", "probe", "index"}

    def test_integer_extra_counters_only(self):
        reg = MetricsRegistry()
        publish_join_stats(make_join_stats(), registry=reg)
        counters = {
            dict(key)["counter"]
            for key in reg.snapshot()["repro_join_counter_total"]
        }
        assert "probe_hits" in counters
        assert "prep_reused" not in counters  # bool
        assert "prep_time" not in counters  # float

    def test_publishes_accumulate_across_runs(self):
        reg = MetricsRegistry()
        publish_join_stats(make_join_stats(), registry=reg)
        publish_join_stats(make_join_stats(), registry=reg)
        key = (("method", "PRT"), ("tau", "2"))
        assert reg.snapshot()["repro_join_runs_total"][key] == 2
        assert reg.snapshot()["repro_join_trees_total"][key] == 20

    def test_stats_object_is_not_mutated(self):
        stats = make_join_stats()
        before = (stats.candidates, stats.results, dict(stats.extra))
        publish_join_stats(stats, registry=MetricsRegistry())
        assert (stats.candidates, stats.results, stats.extra) == before

    def test_defaults_to_process_registry(self):
        mine = MetricsRegistry()
        old = set_registry(mine)
        try:
            publish_join_stats(make_join_stats())
        finally:
            set_registry(old)
        assert "repro_join_runs_total" in mine.snapshot()


def make_stream_stats():
    stats = StreamStats()
    stats.trees = 40
    stats.results = 23
    stats.candidates = 43
    stats.reverse_candidates = 5
    stats.index_entries = 120
    stats.quarantined_trees = 1
    stats.ingest_time = 0.2
    stats.verify_time = 0.1
    return stats


class TestPublishStreamStats:
    def test_gauges_reflect_latest_snapshot(self):
        reg = MetricsRegistry()
        publish_stream_stats(make_stream_stats(), registry=reg)
        snap = reg.snapshot()
        assert snap["repro_stream_trees"][()] == 40
        assert snap["repro_stream_results"][()] == 23
        assert snap["repro_stream_candidates"][()] == 43
        assert snap["repro_stream_index_entries"][()] == 120
        assert snap["repro_stream_snapshots_total"][()] == 1
        assert snap["repro_stream_quarantined_trees_total"][()] == 1

    def test_candidate_gauge_counts_each_verified_candidate_once(self):
        join = StreamingJoin(2)
        join.add_many(make_stream_workload(44))
        stats = join.stats()
        reg = MetricsRegistry()
        publish_stream_stats(stats, registry=reg)
        extra = stats.extra
        verified = extra["lb_filtered"] + extra["certified"] + extra["ted_calls"]
        assert stats.reverse_candidates > 0
        assert reg.snapshot()["repro_stream_candidates"][()] == (
            stats.candidates
        ) == verified

    def test_gauges_overwrite_counters_accumulate(self):
        reg = MetricsRegistry()
        publish_stream_stats(make_stream_stats(), registry=reg)
        publish_stream_stats(make_stream_stats(), registry=reg)
        snap = reg.snapshot()
        assert snap["repro_stream_trees"][()] == 40  # gauge: latest value
        assert snap["repro_stream_snapshots_total"][()] == 2


class TestDefaultBuckets:
    def test_sorted_and_nonempty(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(DEFAULT_BUCKETS) >= 5
