"""Benchmark harness: run one join "cell" and collect the paper's metrics.

A *cell* is one bar/point of a figure: (dataset, method, x-value) →
candidate-generation time, TED-verification time, candidate count, result
count.  :func:`run_cell` executes one cell; :func:`run_grid` sweeps a
parameter; the experiment definitions in :mod:`repro.bench.experiments`
compose these into the paper's Figures 10-14.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.core.join import PartSJConfig
from repro.errors import InvalidParameterError
from repro.session import TreeCollection
from repro.tree.node import Tree

# Cells accept either raw trees (a fresh one-shot session per cell — the
# cold-cache measurement the paper's figures want) or an existing
# TreeCollection (a warm session shared across cells, e.g. one per
# workload in run_grid).
Workload = Union[Sequence[Tree], TreeCollection]

__all__ = ["CellResult", "run_cell", "run_stream_cell", "run_grid", "METHOD_LABELS"]

# Figure series names used by the paper, mapped to registry method names.
METHOD_LABELS = {
    "STR": "str",
    "SET": "set",
    "PRT": "partsj",
    "REL": "nested_loop",
    "HST": "histogram",
}


@dataclass
class CellResult:
    """One figure cell: a method executed on one workload configuration."""

    experiment: str
    dataset: str
    method: str  # figure series name: STR / SET / PRT / REL
    x_name: str  # swept parameter, e.g. "tau" or "cardinality"
    x_value: object
    candidate_time: float
    verify_time: float
    candidates: int
    results: int
    ted_calls: int
    wall_time: float
    # Candidate-generation split (probe vs index build); for filter-only
    # baselines probe_time == candidate_time and index_time == 0.
    probe_time: float = 0.0
    index_time: float = 0.0
    # Worker processes the join ran with: the plan's count, so 1 for every
    # series but PRT.  For workers > 1 the phase times above are summed
    # worker CPU seconds; wall_time is what speeds up.
    workers: int = 1
    extra: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.candidate_time + self.verify_time

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "dataset": self.dataset,
            "method": self.method,
            "x_name": self.x_name,
            "x_value": self.x_value,
            "workers": self.workers,
            "candidate_time": round(self.candidate_time, 4),
            "probe_time": round(self.probe_time, 4),
            "index_time": round(self.index_time, 4),
            "verify_time": round(self.verify_time, 4),
            "total_time": round(self.total_time, 4),
            "wall_time": round(self.wall_time, 4),
            "candidates": self.candidates,
            "results": self.results,
            "ted_calls": self.ted_calls,
        }


def run_cell(
    experiment: str,
    dataset: str,
    trees: Workload,
    tau: int,
    method: str,
    x_name: str,
    x_value: object,
    partsj_config: Optional[PartSJConfig] = None,
    str_banded: bool = False,
    workers: int = 1,
) -> CellResult:
    """Execute one method on one workload and wrap its statistics.

    ``trees`` may be a raw sequence (a one-shot session is built per cell
    — the cold measurement the paper's figures use; result caching never
    applies) or a prepared :class:`repro.session.TreeCollection` for
    explicit warm-session benchmarking.

    ``str_banded`` defaults to ``False`` so that the ``STR`` series pays the
    paper-faithful full string DP (see ``repro.baselines.str_join``).
    ``workers`` sweeps PartSJ's parallel executor (``1`` = serial engine;
    the other series always run serially, and the cell records the plan's
    count); the result set is identical at every setting, so worker-count
    figures plot ``wall_time`` against the serial baseline.
    """
    if method not in METHOD_LABELS:
        raise InvalidParameterError(
            f"unknown figure method {method!r}; choose from {sorted(METHOD_LABELS)}"
        )
    registry_name = METHOD_LABELS[method]
    options = {}
    if registry_name == "partsj" and partsj_config is not None:
        options["config"] = partsj_config
    if registry_name == "str":
        options["banded"] = str_banded
    started = time.perf_counter()
    collection = (
        trees if isinstance(trees, TreeCollection)
        else TreeCollection.from_trees(trees)
    )
    plan = collection.join(
        tau, method=registry_name, workers=workers, **options
    )
    result = plan.run()
    wall = time.perf_counter() - started
    stats = result.stats
    return CellResult(
        experiment=experiment,
        dataset=dataset,
        method=method,
        x_name=x_name,
        x_value=x_value,
        candidate_time=stats.candidate_time,
        verify_time=stats.verify_time,
        candidates=stats.candidates,
        results=stats.results,
        ted_calls=stats.ted_calls,
        wall_time=wall,
        probe_time=stats.probe_time,
        index_time=stats.index_time,
        workers=plan.workers,
        extra=dict(stats.extra),
    )


def run_stream_cell(
    experiment: str,
    dataset: str,
    trees: Sequence[Tree],
    tau: int,
    x_name: str,
    x_value: object,
    partsj_config: Optional[PartSJConfig] = None,
) -> CellResult:
    """Execute the streaming engine on one workload, fed in arrival order.

    The streaming counterpart of :func:`run_cell` (series name ``PRT-S``):
    the trees are ingested one at a time through
    :class:`repro.stream.StreamingJoin` and the cell records, besides the
    batch-comparable phase metrics, the streaming-specific columns in
    ``extra`` — ``ingest_rate`` (trees per second of ingest wall time)
    and ``time_to_first_result`` (seconds until the first verified pair,
    ``None`` when the join is empty) — which
    :func:`repro.bench.reporting.stream_table` renders.
    """
    from repro.stream import StreamingJoin

    started = time.perf_counter()
    first: Optional[float] = None
    with StreamingJoin(tau, config=partsj_config) as join:
        for tree in trees:
            if join.add(tree) and first is None:
                first = time.perf_counter() - started
        wall = time.perf_counter() - started
        stats = join.stats()
        results = len(join.results())
    extra = dict(stats.extra)
    extra["ingest_rate"] = round(stats.ingest_rate, 1)
    extra["time_to_first_result"] = (
        round(first, 4) if first is not None else None
    )
    extra["reverse_candidates"] = stats.reverse_candidates
    return CellResult(
        experiment=experiment,
        dataset=dataset,
        method="PRT-S",
        x_name=x_name,
        x_value=x_value,
        candidate_time=stats.ingest_time,
        verify_time=stats.verify_time,
        candidates=stats.candidates,
        results=results,
        ted_calls=extra.get("ted_calls", 0),
        wall_time=wall,
        extra=extra,
    )


def run_grid(
    experiment: str,
    dataset: str,
    workloads: Sequence[tuple[object, Sequence[Tree], int]],
    methods: Sequence[str],
    x_name: str,
    partsj_config: Optional[PartSJConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
) -> list[CellResult]:
    """Run every method over a sequence of ``(x_value, trees, tau)`` workloads."""
    cells: list[CellResult] = []
    for x_value, trees, tau in workloads:
        for method in methods:
            if progress is not None:
                progress(
                    f"[{experiment}/{dataset}] {method} {x_name}={x_value} "
                    f"(n={len(trees)}, tau={tau})"
                )
            cells.append(
                run_cell(
                    experiment, dataset, trees, tau, method,
                    x_name, x_value, partsj_config, workers=workers,
                )
            )
    return cells
