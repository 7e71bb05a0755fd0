"""The counter registry: internally consistent and actually consumed."""

import repro.obs.metrics as metrics
from repro.analysis.registry import (
    BENCH_EXTRA_COUNTERS,
    EXTRA_COUNTER_KEYS,
    JOIN_EXTRA_COUNTERS,
    METRIC_FAMILIES,
    STREAM_EXTRA_COUNTERS,
    STREAM_FORWARDED_COUNTERS,
)


class TestRegistryConsistency:
    def test_forwarded_counters_are_registered(self):
        assert set(STREAM_FORWARDED_COUNTERS) <= EXTRA_COUNTER_KEYS

    def test_every_entry_has_a_description(self):
        for table in (JOIN_EXTRA_COUNTERS, STREAM_EXTRA_COUNTERS,
                      BENCH_EXTRA_COUNTERS, METRIC_FAMILIES):
            for name, description in table.items():
                assert name and isinstance(name, str)
                assert description.strip(), f"{name} lacks a description"

    def test_union_matches_component_tables(self):
        assert EXTRA_COUNTER_KEYS == (
            set(JOIN_EXTRA_COUNTERS)
            | set(STREAM_EXTRA_COUNTERS)
            | set(BENCH_EXTRA_COUNTERS)
        )

    def test_family_names_follow_prometheus_shape(self):
        for name in METRIC_FAMILIES:
            assert name.startswith("repro_")
            assert name == name.lower()
            assert " " not in name


class TestMetricsConsumesRegistry:
    def test_publish_stream_stats_uses_the_shared_tuple(self):
        # obs.metrics must import the forwarding list, not re-spell it.
        assert metrics.STREAM_FORWARDED_COUNTERS is STREAM_FORWARDED_COUNTERS

    def test_forwarded_counters_reach_the_family(self):
        from repro.obs.export import render_prometheus
        from repro.obs.metrics import MetricsRegistry, publish_stream_stats

        class Stats:
            trees = 4
            results = 1
            candidates = 2
            reverse_candidates = 0
            pending_verification = 0
            index_entries = 7
            quarantined_trees = 0
            ingest_time = 0.1
            verify_time = 0.2
            extra = {"retries": 3, "verify_chunks": 2,
                     "fault_events": ["shard:0 crash"]}

        reg = MetricsRegistry()
        publish_stream_stats(Stats(), reg)
        text = render_prometheus(reg)
        assert 'repro_stream_counter_total{counter="retries"} 3' in text
        assert 'repro_stream_counter_total{counter="verify_chunks"} 2' in text
        # Non-integer extras are not forwarded as counters.
        assert 'counter="fault_events"' not in text
