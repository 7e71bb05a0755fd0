"""Shared pieces of the benchmark suite: paths, metric specs, statistics
and result files.

The suite is described by ``BENCHMARK.json`` at the repository root; this
module reads it so the metric names, units and regression bounds have one
source.  ``EXTRA_METRICS`` holds the end-to-end metrics that only some
workloads can measure (``BENCHMARK.json`` lists only metrics every
workload emits); they appear in result files and in ``compare``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = SUITE_DIR / "expected.json"
OUT_DIR = SUITE_DIR / "out"

DEFAULT_SEED = 1105
TAU = 2

WORKLOADS = ("probe-heavy", "verify-heavy", "verify-heavy-w2", "stream-mixed")

# name -> (unit, better, regression bound).  Bounds follow the rule of
# BENCHMARK.json's (see README): max(noise floor, 2 x the relative IQR
# over 10 seeds), capped at 0.25, which every timing here reached.  Only
# ``compare`` reads them.
EXTRA_METRICS = {
    "ingest_trees_per_s": ("trees/s", "higher", 0.25),
    "ingest_p50_ms": ("ms", "lower", 0.25),
    "ingest_p99_ms": ("ms", "lower", 0.25),
    "search_p50_ms": ("ms", "lower", 0.25),
    "search_p99_ms": ("ms", "lower", 0.25),
    "error_rate": ("ratio", "lower", 0.0),
}

# Per-layer metrics of the tiers only some workloads run, reported by
# their traced runs: name -> unit.
TIER_METRICS = {
    "parallel.plan.s": "s",
    "parallel.shards": "count",
    "parallel.band_trees": "count",
    "parallel.candidates_wall.s": "s",
    "parallel.shard_imbalance": "ratio",
    "parallel.verify_wall.s": "s",
    "parallel.verify_cpu.s": "s",
    "parallel.verify_efficiency": "ratio",
    "parallel.verify_chunks": "count",
    "parallel.retries": "count",
    "stream.add.s": "s",
    "stream.verify.s": "s",
    "stream.candidates": "count",
    "stream.reverse_candidates": "count",
    "stream.flush.s": "s",
    "wal.append.s": "s",
    "wal.sync.s": "s",
    "search.s": "s",
    "search.hits": "count",
}


def load_spec() -> dict:
    """``BENCHMARK.json`` as a dict."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def metric_table(spec: dict) -> dict:
    """Every metric the suite can report: name -> unit, better, bound, group.

    ``group`` is ``end_to_end`` or ``per_layer`` for the metrics
    ``BENCHMARK.json`` lists, ``extra`` for ``EXTRA_METRICS`` and
    ``tier`` for ``TIER_METRICS`` (which, like ``per_layer``, have no
    bound and no direction).
    """
    table = {}
    for group in ("end_to_end", "per_layer"):
        for entry in spec[group]:
            table[entry["name"]] = {
                "unit": entry["unit"],
                "better": entry["better"],
                "bound": entry.get("bound"),
                "group": group,
            }
    for name, (unit, better, bound) in EXTRA_METRICS.items():
        table[name] = {"unit": unit, "better": better, "bound": bound,
                       "group": "extra"}
    for name, unit in TIER_METRICS.items():
        table[name] = {"unit": unit, "better": None, "bound": None,
                       "group": "tier"}
    return table


def load_expected() -> dict:
    """Committed digests of the default seed (``expected.json``)."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


# -- statistics ---------------------------------------------------------------


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- correctness digests ------------------------------------------------------


def pairs_digest(pairs) -> str:
    """sha256 of the sorted ``(i, j, distance)`` triples, one per line."""
    triples = sorted((p.i, p.j, p.distance) for p in pairs)
    text = "".join(f"{i} {j} {d}\n" for i, j, d in triples)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def hits_digest(searches) -> str:
    """sha256 of every search's ``(index, distance)`` hits, in query order."""
    text = "".join(
        f"{n} " + " ".join(f"{i}:{d}" for i, d in hits) + "\n"
        for n, hits in enumerate(searches)
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# -- environment and result files ---------------------------------------------


def git_commit():
    """The checkout's commit, or ``None`` unless it is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    top, commit = (out.stdout.splitlines() + ["", ""])[:2]
    # A checkout without .git inside some other work tree is not that tree.
    return commit if Path(top).resolve() == ROOT else None


def environment(seed: int, scale: str) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "scale": scale,
    }


def write_result(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
