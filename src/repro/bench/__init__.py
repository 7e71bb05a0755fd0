"""Benchmark harness and the paper's experiment registry."""

from repro.bench.experiments import (
    BENCH_PRT_CONFIG,
    EXPERIMENTS,
    SCALES,
    Scale,
    build_dataset,
    get_scale,
    run_experiment,
)
from repro.bench.harness import CellResult, run_cell
from repro.bench.reporting import (
    candidates_table,
    format_table,
    render_figure,
    runtime_table,
)

__all__ = [
    "CellResult",
    "run_cell",
    "Scale",
    "SCALES",
    "get_scale",
    "build_dataset",
    "EXPERIMENTS",
    "run_experiment",
    "BENCH_PRT_CONFIG",
    "runtime_table",
    "candidates_table",
    "render_figure",
    "format_table",
]
