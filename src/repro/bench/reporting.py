"""Render experiment cells as the paper's figure tables.

Two views are produced for each figure:

- a *runtime* table (Figures 10/12/14 odd panels): per method and x-value,
  candidate-generation and TED-verification seconds — the two stacked bar
  segments of the paper's plots;
- a *candidates* table (Figures 11/13/14 even panels): candidate counts per
  series including REL (the true result count).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bench.harness import CellResult

__all__ = [
    "runtime_table",
    "candidates_table",
    "format_table",
    "render_figure",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Plain-text aligned table (also valid GitHub markdown)."""
    materialized = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for k, value in enumerate(row):
            widths[k] = max(widths[k], len(value))
    def line(values: Sequence[str]) -> str:
        return "| " + " | ".join(v.ljust(widths[k]) for k, v in enumerate(values)) + " |"
    separator = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    out = [line(list(headers)), separator]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def _sorted_x(cells: Sequence[CellResult]) -> list[object]:
    seen: list[object] = []
    for cell in cells:
        if cell.x_value not in seen:
            seen.append(cell.x_value)
    return seen


def _methods(cells: Sequence[CellResult], include: Sequence[str]) -> list[str]:
    present: list[str] = []
    for cell in cells:
        if cell.method not in present:
            present.append(cell.method)
    ordered = [m for m in include if m in present]
    ordered.extend(m for m in present if m not in ordered)
    return ordered


def runtime_table(cells: Sequence[CellResult], dataset: str) -> str:
    """Runtime split per method and x-value (one paper bar per row).

    Candidate generation is additionally broken into its probe and
    index-build parts (``JoinStats.probe_time`` / ``index_time``); for
    filter-only baselines the index column is zero.  When any cell ran
    with ``workers > 1`` the table adds ``workers`` and ``wall (s)``
    columns: the phase columns are then summed worker CPU seconds, and
    the wall clock is the number a worker-count sweep actually improves.
    """
    subset = [
        c for c in cells if c.dataset == dataset and not c.method.startswith("REL")
    ]
    x_name = subset[0].x_name if subset else "x"
    methods = _methods(subset, ["STR", "SET", "HST", "PRT"])
    parallel = any(c.workers != 1 for c in subset)
    rows = []
    for x_value in _sorted_x(subset):
        for method in methods:
            cell = next(
                (c for c in subset if c.x_value == x_value and c.method == method),
                None,
            )
            if cell is None:
                continue  # sparse grid (e.g. ablations with per-method x values)
            row = [
                x_value,
                method,
                f"{cell.candidate_time:.3f}",
                f"{cell.probe_time:.3f}",
                f"{cell.index_time:.3f}",
                f"{cell.verify_time:.3f}",
                f"{cell.total_time:.3f}",
            ]
            if parallel:
                row += [cell.workers, f"{cell.wall_time:.3f}"]
            rows.append(row)
    headers = [
        x_name, "method", "cand gen (s)", "probe (s)", "index (s)",
        "TED (s)", "total (s)",
    ]
    if parallel:
        headers += ["workers", "wall (s)"]
    return format_table(headers, rows)


def candidates_table(cells: Sequence[CellResult], dataset: str) -> str:
    """Candidate counts per series, REL being the true result count."""
    subset = [c for c in cells if c.dataset == dataset]
    x_name = subset[0].x_name if subset else "x"
    methods = _methods(subset, ["SET", "STR", "HST", "PRT", "REL"])
    rows = []
    for x_value in _sorted_x(subset):
        row: list[object] = [x_value]
        for method in methods:
            cell = next(
                (c for c in subset if c.x_value == x_value and c.method == method),
                None,
            )
            if cell is None:
                row.append("-")  # sparse grid
                continue
            # The REL series in the paper plots the number of join results.
            row.append(cell.results if method.startswith("REL") else cell.candidates)
        rows.append(row)
    headers = [x_name] + methods
    return format_table(headers, rows)


def render_figure(
    title: str,
    cells: Sequence[CellResult],
    kind: str = "both",
) -> str:
    """Full text rendering of a figure: one table block per dataset."""
    out = [f"== {title} =="]
    datasets: list[str] = []
    for cell in cells:
        if cell.dataset not in datasets:
            datasets.append(cell.dataset)
    for dataset in datasets:
        out.append(f"-- dataset: {dataset} --")
        if kind in ("both", "runtime"):
            out.append(runtime_table(cells, dataset))
        if kind in ("both", "candidates"):
            out.append(candidates_table(cells, dataset))
    return "\n".join(out) + "\n"
