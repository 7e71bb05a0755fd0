"""Tests for the benchmark harness (repro.bench.harness)."""

import pytest

from repro.bench.harness import METHOD_LABELS, CellResult, run_cell, run_grid
from repro.errors import InvalidParameterError
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


class TestRunGrid:
    def test_grid_covers_workloads_and_methods(self, forest):
        workloads = [(1, forest, 1), (2, forest, 2)]
        seen = []
        cells = run_grid(
            "exp", "tiny", workloads, ("PRT", "REL"), "tau",
            progress=seen.append,
        )
        assert len(cells) == 4
        assert len(seen) == 4
        assert {(c.x_value, c.method) for c in cells} == {
            (1, "PRT"), (1, "REL"), (2, "PRT"), (2, "REL"),
        }


class TestRunStreamCell:
    def test_streaming_cell_matches_batch_results(self, forest):
        from repro.bench.harness import run_stream_cell

        batch = run_cell("exp", "tiny", forest, 2, "PRT", "tau", 2)
        cell = run_stream_cell("exp", "tiny", forest, 2, "tau", 2)
        assert cell.method == "PRT-S"
        assert cell.results == batch.results
        assert cell.candidates == batch.candidates
        assert cell.wall_time > 0
        assert cell.extra["ingest_rate"] > 0
        if cell.results:
            # The first pair must land before the stream finished.
            assert 0 < cell.extra["time_to_first_result"] <= cell.wall_time
        assert cell.extra["ted_calls"] >= 0

    def test_empty_stream_has_no_first_result(self):
        from repro.bench.harness import run_stream_cell

        cell = run_stream_cell("exp", "tiny", [], 1, "tau", 1)
        assert cell.results == 0
        assert cell.extra["time_to_first_result"] is None
