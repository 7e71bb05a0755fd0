"""Tests for the benchmark harness (repro.bench.harness)."""

import pytest

from repro.bench.harness import METHOD_LABELS, run_cell
from repro.core.join import PartSJConfig
from repro.errors import InvalidParameterError
from repro.session import TreeCollection
from tests.conftest import make_cluster_forest


@pytest.fixture
def forest(rng):
    return make_cluster_forest(
        rng, clusters=2, cluster_size=3, base_size=8, max_edits=2
    )


class TestRunCell:
    @pytest.mark.parametrize("method", sorted(METHOD_LABELS))
    def test_every_series_runs(self, forest, method):
        cell = run_cell("exp", "tiny", forest, 1, method, "tau", 1)
        assert cell.method == method
        assert cell.results >= 0
        assert cell.candidates >= cell.results
        assert cell.wall_time > 0

    def test_unknown_method(self, forest):
        with pytest.raises(InvalidParameterError):
            run_cell("exp", "tiny", forest, 1, "XYZ", "tau", 1)

    def test_all_series_agree_on_results(self, forest):
        counts = {
            method: run_cell("exp", "tiny", forest, 2, method, "tau", 2).results
            for method in ("STR", "SET", "PRT", "REL", "HST")
        }
        assert len(set(counts.values())) == 1, counts

    def test_as_dict_round_trip(self, forest):
        cell = run_cell("exp", "tiny", forest, 1, "REL", "tau", 1)
        payload = cell.as_dict()
        assert payload["experiment"] == "exp"
        # Each field is rounded to 4 decimals independently, so allow the
        # worst-case combined rounding error.
        assert payload["total_time"] == pytest.approx(
            payload["candidate_time"] + payload["verify_time"], abs=2e-4
        )

    def test_cell_records_the_workers_the_join_ran_with(self, forest):
        # A baseline runs in this process at any workers; PRT shards.
        serial = run_cell("e", "d", forest, 2, "STR", "tau", 2)
        asked = run_cell("e", "d", forest, 2, "STR", "tau", 2, workers=2)
        assert asked.workers == 1
        counts = ("candidates", "results", "ted_calls")
        assert [getattr(asked, k) for k in counts] == [
            getattr(serial, k) for k in counts
        ]
        assert asked.extra == serial.extra
        assert run_cell(
            "e", "d", forest, 2, "PRT", "tau", 2, workers=2
        ).workers == 2

    def test_str_banded_flag_recorded(self, forest):
        banded = run_cell("e", "d", forest, 1, "STR", "tau", 1, str_banded=True)
        full = run_cell("e", "d", forest, 1, "STR", "tau", 1, str_banded=False)
        assert banded.extra["banded"] is True
        assert full.extra["banded"] is False
        assert banded.results == full.results


class TestCellMatchesSession:
    @pytest.mark.parametrize("tau", (0, 1, 2, 3))
    def test_counts_equal_a_session_join(self, forest, tau):
        cell = run_cell("exp", "tiny", forest, tau, "PRT", "tau", tau)
        stats = TreeCollection.from_trees(forest).join(tau).run().stats
        assert (cell.results, cell.candidates, cell.ted_calls) == (
            stats.results, stats.candidates, stats.ted_calls,
        )

    @pytest.mark.parametrize("method", sorted(METHOD_LABELS))
    def test_collection_workload_matches_raw_trees(self, forest, method):
        cold = run_cell("e", "d", forest, 2, method, "tau", 2)
        warm = run_cell(
            "e", "d", TreeCollection.from_trees(forest), 2, method, "tau", 2
        )
        counts = ("results", "candidates", "ted_calls")
        assert [getattr(warm, k) for k in counts] == [
            getattr(cold, k) for k in counts
        ]

    def test_partsj_config_reaches_the_join(self, forest):
        # At tau 1 on this forest the postorder filter prunes a candidate.
        off = PartSJConfig(postorder_filter="off")
        default = run_cell("e", "d", forest, 1, "PRT", "tau", 1)
        unfiltered = run_cell(
            "e", "d", forest, 1, "PRT", "tau", 1, partsj_config=off
        )
        session = TreeCollection.from_trees(forest).join(1, config=off).run()
        assert unfiltered.candidates == session.stats.candidates
        assert unfiltered.candidates > default.candidates
        assert unfiltered.results == default.results

    def test_cell_records_its_axis(self, forest):
        cell = run_cell("fig12", "swissprot", forest, 1, "SET",
                        "cardinality", 6)
        payload = cell.as_dict()
        assert [payload[k] for k in (
            "experiment", "dataset", "method", "x_name", "x_value",
        )] == ["fig12", "swissprot", "SET", "cardinality", 6]
