"""The counter registry: its tables are internally consistent."""

from repro.analysis.registry import (
    BENCH_EXTRA_COUNTERS,
    EXTRA_COUNTER_KEYS,
    JOIN_EXTRA_COUNTERS,
    METRIC_FAMILIES,
    STREAM_EXTRA_COUNTERS,
)


class TestRegistryConsistency:
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

