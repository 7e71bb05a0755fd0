"""Tests for benchmark table rendering (repro.bench.reporting)."""

from dataclasses import replace

import pytest

from repro.bench.harness import CellResult
from repro.bench.reporting import (
    candidates_table,
    format_table,
    render_figure,
    runtime_table,
)


def cell(method, x, dataset="ds", candidates=10, results=5):
    return CellResult(
        experiment="exp",
        dataset=dataset,
        method=method,
        x_name="tau",
        x_value=x,
        candidate_time=0.5,
        verify_time=1.5,
        candidates=candidates,
        results=results,
        ted_calls=candidates,
        wall_time=2.1,
    )


class TestFormatTable:
    def test_alignment_and_markdown(self):
        table = format_table(["a", "long header"], [[1, 2], ["xyz", 4]])
        lines = table.splitlines()
        assert lines[0].startswith("| a")
        assert set(lines[1]) <= {"|", "-"}
        assert all(line.startswith("|") and line.endswith("|") for line in lines)
        assert len({len(line) for line in lines}) == 1  # rectangular


class TestFigureTables:
    def test_runtime_table_excludes_rel(self):
        cells = [cell("STR", 1), cell("PRT", 1), cell("REL", 1)]
        table = runtime_table(cells, "ds")
        assert "STR" in table and "PRT" in table
        assert "REL" not in table

    def test_candidates_table_uses_results_for_rel(self):
        cells = [
            cell("PRT", 1, candidates=42, results=5),
            cell("REL", 1, candidates=99, results=5),
        ]
        table = candidates_table(cells, "ds")
        assert "42" in table
        assert "99" not in table  # REL shows its result count, 5
        assert "| 1" in table

    def test_method_column_order(self):
        cells = [cell(m, 1) for m in ("PRT", "REL", "STR", "SET")]
        header = candidates_table(cells, "ds").splitlines()[0]
        assert header.index("SET") < header.index("STR") < header.index("PRT")

    def test_sparse_grid_dash(self):
        cells = [cell("PRT", 1), cell("STR", 2)]
        table = candidates_table(cells, "ds")
        assert "-" in table

    def test_render_figure_sections(self):
        cells = [cell("PRT", 1, dataset="d1"), cell("PRT", 1, dataset="d2")]
        text = render_figure("My Figure", cells)
        assert text.startswith("== My Figure ==")
        assert "-- dataset: d1 --" in text
        assert "-- dataset: d2 --" in text


def columns(line):
    return [value.strip() for value in line.strip("|").split("|")]


class TestRuntimeTable:
    def test_row_splits_the_times(self):
        row = runtime_table([cell("PRT", 1)], "ds").splitlines()[2]
        assert columns(row) == [
            "1", "PRT", "0.500", "0.000", "0.000", "1.500", "2.000",
        ]

    def test_serial_cells_have_no_parallel_columns(self):
        header = runtime_table([cell("PRT", 1), cell("STR", 1)], "ds")
        assert "workers" not in header
        assert "wall (s)" not in header

    def test_parallel_cell_adds_workers_and_wall(self):
        cells = [cell("PRT", 1), replace(cell("PRT", 2), workers=4)]
        lines = runtime_table(cells, "ds").splitlines()
        assert columns(lines[0])[-2:] == ["workers", "wall (s)"]
        assert columns(lines[2])[-2:] == ["1", "2.100"]
        assert columns(lines[3])[-2:] == ["4", "2.100"]


class TestTableLayout:
    def test_x_values_keep_first_seen_order(self):
        cells = [cell("PRT", 3), cell("PRT", 1), cell("PRT", 2)]
        for render in (runtime_table, candidates_table):
            rows = render(cells, "ds").splitlines()[2:]
            assert [columns(row)[0] for row in rows] == ["3", "1", "2"]

    def test_header_names_the_swept_parameter(self):
        cells = [replace(cell("PRT", 100), x_name="cardinality")]
        for render in (runtime_table, candidates_table):
            assert columns(render(cells, "ds").splitlines()[0])[0] == (
                "cardinality"
            )

    @pytest.mark.parametrize("render", [runtime_table, candidates_table])
    def test_absent_dataset_renders_the_header_only(self, render):
        lines = render([cell("PRT", 1)], "other").splitlines()
        assert len(lines) == 2
        assert columns(lines[0])[0] == "x"

    @pytest.mark.parametrize(
        "kind, has_runtime, has_candidates",
        [("both", True, True), ("runtime", True, False),
         ("candidates", False, True)],
    )
    def test_render_figure_kind(self, kind, has_runtime, has_candidates):
        cells = [cell("PRT", 1)]
        text = render_figure("F", cells, kind=kind)
        assert (runtime_table(cells, "ds") in text) == has_runtime
        assert (candidates_table(cells, "ds") in text) == has_candidates
