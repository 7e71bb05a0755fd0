"""Benchmark configuration.

``pytest benchmarks/ --benchmark-only`` reproduces every figure of the
paper's evaluation.  The workload scale defaults to ``smoke`` here (a few
minutes total); export ``REPRO_BENCH_SCALE=small`` or ``medium`` for the
fuller grids (see ``repro.bench.experiments.SCALES``).

Every figure benchmark prints its paper-style tables and also writes them
to ``benchmarks/results/<experiment>_<scale>.txt`` so the numbers quoted in
EXPERIMENTS.md can be regenerated.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.experiments import get_scale

RESULTS_DIR = Path(__file__).parent / "results"

# Benchmarks default to the smoke scale so a full `pytest benchmarks/`
# pass stays in the minutes range; the env var still wins.
os.environ.setdefault("REPRO_BENCH_SCALE", "smoke")


@pytest.fixture(scope="session")
def scale():
    return get_scale()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


# Trees per scale for the probe workload that bench_obs_overhead.py
# times: probing and inserting are cheap per tree, so the counts stay in
# the hundreds.
PROBE_WORKLOAD_COUNTS = {"smoke": 250, "small": 400, "medium": 600}
# Shape and seed of the probe workload.  The snapshot bench_obs_overhead.py
# commits is recorded on this exact definition (at smoke count), so its
# CI guard compares like with like; regenerate the snapshot when changing it.
PROBE_WORKLOAD_SHAPE = dict(avg_size=150, max_fanout=4, max_depth=6, cluster_size=8)
PROBE_WORKLOAD_SEED = 1105


def make_probe_workload(count: int):
    """The standard candidate-generation workload at a given tree count.

    Large, bushy trees: candidate generation cost scales with node
    count, and the big-tree regime is where the paper's probe/insert
    machinery (not TED) dominates the join.
    """
    from repro.datasets.synthetic import SyntheticParams, generate_forest

    return generate_forest(
        count, SyntheticParams(**PROBE_WORKLOAD_SHAPE), seed=PROBE_WORKLOAD_SEED
    )


@pytest.fixture(scope="session")
def probe_workload(scale):
    """Clustered synthetic trees of the probe workload, at this scale."""
    return make_probe_workload(PROBE_WORKLOAD_COUNTS.get(scale.name, 250))


def save_and_print(results_dir: Path, name: str, scale, text: str) -> None:
    """Echo a rendered figure and persist it under benchmarks/results/."""
    print()
    print(text)
    path = results_dir / f"{name}_{scale.name}.txt"
    path.write_text(text, encoding="utf-8")


# Trees per scale for the persistence benchmark's stream workload
# (bench_session_persist.py).  Mixed-size clusters at a moderate average
# size: big enough that candidate generation and verification both
# register, small enough that its CI smoke guard finishes in seconds.
# The BENCH_PR7.json snapshot is recorded on this exact definition (smoke
# count); regenerate it when changing this.
STREAM_WORKLOAD_COUNTS = {"smoke": 300, "small": 500, "medium": 800}
STREAM_WORKLOAD_SHAPE = dict(
    avg_size=80, max_fanout=4, max_depth=6, cluster_size=8, decay=0.03
)
STREAM_WORKLOAD_SEED = 1105


def make_stream_workload(count: int):
    """The standard streaming-ingestion workload at a given tree count."""
    from repro.datasets.synthetic import SyntheticParams, generate_forest

    return generate_forest(
        count, SyntheticParams(**STREAM_WORKLOAD_SHAPE),
        seed=STREAM_WORKLOAD_SEED,
    )


@pytest.fixture(scope="session")
def stream_workload(scale):
    """Clustered synthetic trees for the persistence benchmark."""
    return make_stream_workload(STREAM_WORKLOAD_COUNTS.get(scale.name, 300))
