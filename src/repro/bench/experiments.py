"""Experiment registry: every figure of the paper's Section 4.

Each experiment id maps to a runner that generates its workloads, executes
all figure series, and returns :class:`~repro.bench.harness.CellResult`
rows.  Figures that share runs are produced together (Figure 10's runtimes
and Figure 11's candidate counts come from the same executions, likewise
12/13).

Scales
------
The paper runs 10K-100K trees on C++; a pure-Python reproduction sweeps the
same parameter grids at reduced cardinality, chosen so every method's
*relative* behaviour is preserved (:data:`SCALES` lists the sizes).
Select with ``REPRO_BENCH_SCALE`` (``smoke`` / ``small`` / ``medium``) or
the ``scale=`` argument; the default is ``small``.

Method configurations
---------------------
- ``STR`` runs paper-faithfully with the full ``O(n^2)`` string DP
  (``banded=False``); the banded variant is an ablation
  (``ablation_str_banding``).
- ``PRT`` runs with the paper's strict matching semantics and the *safe*
  postorder window.  The fully published window (``PartSJConfig.paper()``)
  drops join results and is measured by the ``ablation_filters``
  experiment instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.bench.harness import CellResult, run_cell
from repro.core.join import PartSJConfig
from repro.datasets.realistic import sentiment_like, swissprot_like, treebank_like
from repro.datasets.synthetic import SyntheticParams, generate_forest
from repro.errors import InvalidParameterError
from repro.tree.node import Tree

__all__ = [
    "Scale",
    "SCALES",
    "get_scale",
    "build_dataset",
    "EXPERIMENTS",
    "run_experiment",
    "BENCH_PRT_CONFIG",
]

BENCH_SEED = 2015  # the paper's year; fixed so runs are reproducible

# PRT configuration used in the figure reproductions: the paper's strict
# matching, with the provably-sound postorder window (the published window
# loses results; see the ablation_filters experiment).
BENCH_PRT_CONFIG = PartSJConfig(semantics="paper", postorder_filter="safe")

Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class Scale:
    """Workload sizes for one benchmark scale."""

    name: str
    join_count: int  # collection size for fig10/11
    taus: tuple[int, ...]  # TED thresholds swept in fig10/11
    cardinalities: tuple[int, ...]  # collection sizes for fig12/13
    card_tau: int  # fixed tau for fig12/13 (paper: 3)
    sens_count: int  # collection size per fig14 cell
    sens_tau: int  # fixed tau for fig14 (paper: 3)
    fanouts: tuple[int, ...]  # fig14(a,b)
    depths: tuple[int, ...]  # fig14(c,d)
    label_counts: tuple[int, ...]  # fig14(e,f)
    tree_sizes: tuple[int, ...]  # fig14(g,h)
    ablation_count: int
    datasets: tuple[str, ...] = ("swissprot", "treebank", "sentiment", "synthetic")


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        join_count=120,
        taus=(1, 2, 3),
        cardinalities=(40, 80, 120),
        card_tau=2,
        sens_count=80,
        sens_tau=2,
        fanouts=(2, 4, 6),
        depths=(4, 6, 8),
        label_counts=(5, 20, 50),
        tree_sizes=(40, 80, 120),
        ablation_count=100,
    ),
    "small": Scale(
        name="small",
        join_count=250,
        taus=(1, 2, 3, 4, 5),
        cardinalities=(50, 100, 150, 200, 250),
        card_tau=3,
        sens_count=100,
        sens_tau=3,
        fanouts=(2, 3, 4, 5, 6),  # Table 1
        depths=(4, 5, 6, 7, 8),
        label_counts=(3, 5, 10, 20, 50),
        tree_sizes=(40, 80, 120, 160, 200),
        ablation_count=150,
    ),
    "medium": Scale(
        name="medium",
        join_count=600,
        taus=(1, 2, 3, 4, 5),
        cardinalities=(120, 240, 360, 480, 600),
        card_tau=3,
        sens_count=200,
        sens_tau=3,
        fanouts=(2, 3, 4, 5, 6),
        depths=(4, 5, 6, 7, 8),
        label_counts=(3, 5, 10, 20, 50),
        tree_sizes=(40, 80, 120, 160, 200),
        ablation_count=300,
    ),
}


def get_scale(name: Optional[str] = None) -> Scale:
    """Resolve a scale by argument, ``REPRO_BENCH_SCALE``, or default."""
    chosen = name or os.environ.get("REPRO_BENCH_SCALE", "small")
    try:
        return SCALES[chosen]
    except KeyError:
        raise InvalidParameterError(
            f"unknown scale {chosen!r}; choose from {sorted(SCALES)}"
        ) from None


def build_dataset(
    name: str,
    count: int,
    seed: int = BENCH_SEED,
    params: Optional[SyntheticParams] = None,
) -> list[Tree]:
    """Instantiate one of the four evaluation datasets at a given size."""
    if name == "swissprot":
        return swissprot_like(count, seed=seed)
    if name == "treebank":
        return treebank_like(count, seed=seed)
    if name == "sentiment":
        return sentiment_like(count, seed=seed)
    if name == "synthetic":
        return generate_forest(count, params or SyntheticParams(), seed=seed)
    raise InvalidParameterError(
        f"unknown dataset {name!r}; choose from "
        "swissprot / treebank / sentiment / synthetic"
    )


def _note(progress: Progress, message: str) -> None:
    if progress is not None:
        progress(message)


def _run_series(
    experiment: str,
    dataset: str,
    workloads: Sequence[tuple[object, Sequence[Tree], int]],
    methods: Sequence[str],
    x_name: str,
    progress: Progress,
    workers: int = 1,
) -> list[CellResult]:
    cells: list[CellResult] = []
    for x_value, trees, tau in workloads:
        for method in methods:
            _note(
                progress,
                f"[{experiment}] {dataset} {method} {x_name}={x_value} "
                f"(n={len(trees)}, tau={tau})",
            )
            cells.append(
                run_cell(
                    experiment, dataset, trees, tau, method, x_name, x_value,
                    partsj_config=BENCH_PRT_CONFIG, workers=workers,
                )
            )
    return cells


def run_fig10_11(
    scale: Optional[Scale] = None,
    datasets: Optional[Sequence[str]] = None,
    progress: Progress = None,
    workers: int = 1,
) -> list[CellResult]:
    """Figures 10 & 11: runtime and candidates vs TED threshold tau.

    One execution per (dataset, tau, method); Figure 10 reads the timing
    columns, Figure 11 the candidate counts (REL = result count).
    """
    scale = scale or get_scale()
    cells: list[CellResult] = []
    for dataset in datasets or scale.datasets:
        trees = build_dataset(dataset, scale.join_count)
        workloads = [(tau, trees, tau) for tau in scale.taus]
        cells.extend(
            _run_series(
                "fig10_11", dataset, workloads,
                ("STR", "SET", "PRT", "REL"), "tau", progress, workers,
            )
        )
    return cells


def run_fig12_13(
    scale: Optional[Scale] = None,
    datasets: Optional[Sequence[str]] = None,
    progress: Progress = None,
    workers: int = 1,
) -> list[CellResult]:
    """Figures 12 & 13: runtime and candidates vs dataset cardinality."""
    scale = scale or get_scale()
    cells: list[CellResult] = []
    for dataset in datasets or scale.datasets:
        # Prefix subsets of one generated collection, like the paper's
        # 20K..100K subsets of each dataset.
        full = build_dataset(dataset, max(scale.cardinalities))
        workloads = [
            (count, full[:count], scale.card_tau)
            for count in scale.cardinalities
        ]
        cells.extend(
            _run_series(
                "fig12_13", dataset, workloads,
                ("STR", "SET", "PRT", "REL"), "cardinality", progress, workers,
            )
        )
    return cells


def _sensitivity_workloads(
    scale: Scale,
    parameter: str,
) -> list[tuple[object, list[Tree], int]]:
    values: Sequence[int]
    if parameter == "fanout":
        values = scale.fanouts
        make = lambda v: SyntheticParams(max_fanout=v)
    elif parameter == "depth":
        values = scale.depths
        make = lambda v: SyntheticParams(max_depth=v)
    elif parameter == "labels":
        values = scale.label_counts
        make = lambda v: SyntheticParams(num_labels=v)
    elif parameter == "tree_size":
        values = scale.tree_sizes
        make = lambda v: SyntheticParams(avg_size=v)
    else:
        raise InvalidParameterError(
            f"unknown sensitivity parameter {parameter!r}; choose from "
            "fanout / depth / labels / tree_size"
        )
    return [
        (
            value,
            build_dataset("synthetic", scale.sens_count, params=make(value)),
            scale.sens_tau,
        )
        for value in values
    ]


def run_fig14(
    parameter: str,
    scale: Optional[Scale] = None,
    progress: Progress = None,
    workers: int = 1,
) -> list[CellResult]:
    """Figure 14: sensitivity to fanout / depth / labels / tree size.

    Each call covers one parameter (two panels of the figure: runtime and
    candidates); all four parameters together reproduce panels (a)-(h).
    """
    scale = scale or get_scale()
    workloads = _sensitivity_workloads(scale, parameter)
    return _run_series(
        f"fig14_{parameter}", "synthetic", workloads,
        ("STR", "SET", "PRT", "REL"), parameter, progress, workers,
    )


def run_ablation_partitioning(
    scale: Optional[Scale] = None,
    progress: Progress = None,
    workers: int = 1,
) -> list[CellResult]:
    """Section 4.3 closing remark: MaxMinSize vs random partitioning.

    The paper reports a 50%-300% improvement from its balanced partitioning
    over random tree partitioning; this experiment reproduces that
    comparison on the synthetic dataset across taus.
    """
    scale = scale or get_scale()
    trees = build_dataset("synthetic", scale.ablation_count)
    cells: list[CellResult] = []
    for tau in scale.taus:
        for strategy in ("maxmin", "random"):
            _note(progress, f"[ablation_partitioning] {strategy} tau={tau}")
            config = replace(BENCH_PRT_CONFIG, partition_strategy=strategy)
            cell = run_cell(
                "ablation_partitioning", "synthetic", trees, tau, "PRT",
                "tau", tau, partsj_config=config, workers=workers,
            )
            cell.method = f"PRT[{strategy}]"
            cells.append(cell)
    return cells


def run_ablation_filters(
    scale: Optional[Scale] = None,
    progress: Progress = None,
    workers: int = 1,
) -> list[CellResult]:
    """Filter-variant ablation, including the published (unsound) window.

    Runs PRT under every combination of matching semantics and postorder
    window on the synthetic dataset and reports candidates *and results*:
    configurations using the published window return fewer results than
    REL (the published window's false negatives).
    """
    scale = scale or get_scale()
    trees = build_dataset("synthetic", scale.ablation_count)
    tau = scale.sens_tau
    cells: list[CellResult] = []
    _note(progress, "[ablation_filters] REL baseline")
    cells.append(
        run_cell("ablation_filters", "synthetic", trees, tau, "REL",
                 "variant", "exact", workers=workers)
    )
    for semantics in ("paper", "safe"):
        for window in ("paper", "safe", "off"):
            _note(progress, f"[ablation_filters] sem={semantics} window={window}")
            config = PartSJConfig(semantics=semantics, postorder_filter=window)
            cell = run_cell(
                "ablation_filters", "synthetic", trees, tau, "PRT",
                "variant", f"{semantics}/{window}", partsj_config=config,
                workers=workers,
            )
            cell.method = f"PRT[{semantics}/{window}]"
            cells.append(cell)
    return cells


def run_ablation_str_banding(
    scale: Optional[Scale] = None,
    progress: Progress = None,
    workers: int = 1,
) -> list[CellResult]:
    """Our STR improvement: the threshold string-edit kernel vs the
    paper's full DP."""
    scale = scale or get_scale()
    trees = build_dataset("swissprot", scale.ablation_count)
    cells: list[CellResult] = []
    for tau in scale.taus:
        for banded in (False, True):
            _note(progress, f"[ablation_str_banding] banded={banded} tau={tau}")
            cell = run_cell(
                "ablation_str_banding", "swissprot", trees, tau, "STR",
                "tau", tau, str_banded=banded, workers=workers,
            )
            cell.method = "STR[banded]" if banded else "STR[full]"
            cells.append(cell)
    return cells


EXPERIMENTS: dict[str, tuple[str, Callable[..., list[CellResult]]]] = {
    "fig10": ("Figure 10: runtime vs tau", run_fig10_11),
    "fig11": ("Figure 11: candidates vs tau", run_fig10_11),
    "fig12": ("Figure 12: runtime vs cardinality", run_fig12_13),
    "fig13": ("Figure 13: candidates vs cardinality", run_fig12_13),
    "fig14f": ("Figure 14(a,b): fanout sensitivity",
               lambda **kw: run_fig14("fanout", **kw)),
    "fig14d": ("Figure 14(c,d): depth sensitivity",
               lambda **kw: run_fig14("depth", **kw)),
    "fig14l": ("Figure 14(e,f): label sensitivity",
               lambda **kw: run_fig14("labels", **kw)),
    "fig14t": ("Figure 14(g,h): tree size sensitivity",
               lambda **kw: run_fig14("tree_size", **kw)),
    "ablation_partitioning": (
        "Ablation: MaxMinSize vs random partitioning", run_ablation_partitioning),
    "ablation_filters": (
        "Ablation: filter variants incl. published window", run_ablation_filters),
    "ablation_str_banding": (
        "Ablation: STR banded vs full DP", run_ablation_str_banding),
}


def run_experiment(
    experiment_id: str,
    scale: Optional[str | Scale] = None,
    progress: Progress = None,
    workers: int = 1,
) -> list[CellResult]:
    """Run one registered experiment by id and return its cells."""
    try:
        _, runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    resolved = scale if isinstance(scale, Scale) else get_scale(scale)
    return runner(scale=resolved, progress=progress, workers=workers)
