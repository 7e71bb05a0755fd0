"""Kernel backends head to head: python reference vs numpy flat-array.

PR 9 put two hot loops behind ``PartSJConfig(backend=...)``: the
probe/bucket-window walk (``repro.kernels.probe``) and the partition
span fills (``repro.kernels.partition``).  This benchmark measures each
kernel against its pure-python reference, and the two backends end to
end, on a duplicate-heavy clustered workload (the dedup-dominated regime
the probe kernel targets):

- both backends must return *bit-identical* results — same pairs, same
  distances, same candidate counts (the cross-backend test matrix in
  ``tests/kernels/`` property-tests the same contract);
- the committed snapshot ``BENCH_PR9.json`` records the measured
  end-to-end and per-kernel ratios **honestly**: on CPython + numpy the
  end-to-end ratio is ~1x at tau <= 3 — verification (always scalar)
  dominates, and the numpy win is confined to probe windows of ~a
  hundred entries or more;
- ``python benchmarks/bench_kernels.py --snapshot`` regenerates the
  snapshot; the CI kernels-smoke job guards against regressions with
  ratios, not absolute seconds: the live numpy/python end-to-end ratio
  may not fall below *half* the committed one.

Run with ``pytest benchmarks/bench_kernels.py``.
"""

import json
import random
import sys
import time
from pathlib import Path

import pytest

from repro.core.join import PartSJConfig, ShardDriver, partsj_join
from repro.kernels import numpy_available

SNAPSHOT_PATH = Path(__file__).parent.parent / "BENCH_PR9.json"
TAUS = (1, 2, 3)
REPEATS = 3

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

# Duplicate-heavy clusters: many near-copies of one base tree per
# cluster, so probe windows carry long runs of already-checked owners —
# the dedup-gather regime the probe kernel vectorizes.  The BENCH_PR9
# snapshot is recorded on this exact definition (smoke count).
KERNELS_WORKLOAD_COUNTS = {"smoke": 240, "small": 400, "medium": 640}
KERNELS_WORKLOAD_SHAPE = dict(cluster_size=30, base_size=45, max_edits=2)
KERNELS_WORKLOAD_SEED = 1105


def make_kernels_workload(count: int):
    from repro.tree.edits import random_script
    from repro.tree.node import Tree, TreeNode

    shape = KERNELS_WORKLOAD_SHAPE
    rng = random.Random(KERNELS_WORKLOAD_SEED)
    labels = list("abcd")
    trees = []
    while len(trees) < count:
        root = TreeNode(rng.choice(labels))
        nodes = [root]
        for _ in range(shape["base_size"] - 1):
            parent = rng.choice(nodes)
            nodes.append(parent.add_child(TreeNode(rng.choice(labels))))
        base = Tree(root)
        for _ in range(min(shape["cluster_size"], count - len(trees))):
            edited, _ = random_script(
                base, rng.randint(0, shape["max_edits"]), rng, labels
            )
            trees.append(edited)
    return trees


@pytest.fixture(scope="module")
def kernels_workload():
    from repro.bench.experiments import get_scale

    count = KERNELS_WORKLOAD_COUNTS.get(get_scale().name, 240)
    return make_kernels_workload(count)


def _best_join(trees, tau, backend, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        result = partsj_join(trees, tau, PartSJConfig(backend=backend))
        if best is None or (
            result.stats.candidate_time + result.stats.verify_time
            < best[1]
        ):
            best = (result, result.stats.candidate_time
                    + result.stats.verify_time)
    return best[0]


def measure_end_to_end(trees, taus=TAUS, repeats=REPEATS):
    """Interleaved best-of runs per tau; asserts bit-identity."""
    metrics = {}
    for tau in taus:
        py = _best_join(trees, tau, "python", repeats)
        np_ = _best_join(trees, tau, "numpy", repeats)
        assert [(p.i, p.j, p.distance) for p in py.pairs] == \
            [(p.i, p.j, p.distance) for p in np_.pairs], f"tau={tau}"
        assert py.stats.candidates == np_.stats.candidates
        t_py = py.stats.candidate_time + py.stats.verify_time
        t_np = np_.stats.candidate_time + np_.stats.verify_time
        metrics[tau] = {
            "python_s": round(t_py, 4),
            "numpy_s": round(t_np, 4),
            "ratio": round(t_py / max(t_np, 1e-9), 3),
            "probe_ratio": round(
                py.stats.probe_time / max(np_.stats.probe_time, 1e-9), 3
            ),
            "candidates": py.stats.candidates,
            "results": py.stats.results,
            "probe_hits": py.stats.extra["probe_hits"],
            "dedup_skips": py.stats.extra["dedup_skips"],
        }
    return metrics


def measure_probe(trees, tau=2, repeats=REPEATS):
    """Candidate-generation phase only, via the incremental driver."""
    order = sorted(range(len(trees)), key=lambda i: trees[i].size)

    def run(backend):
        driver = ShardDriver(
            trees, tau, PartSJConfig(backend=backend).resolved()
        )
        for i in order:
            driver.ingest(i)
        return driver.probe_time

    best = {"python": None, "numpy": None}
    for _ in range(repeats):
        for backend in best:
            t = run(backend)
            if best[backend] is None or t < best[backend]:
                best[backend] = t
    return {
        "tau": tau,
        "python_s": round(best["python"], 4),
        "numpy_s": round(best["numpy"], 4),
        "ratio": round(best["python"] / max(best["numpy"], 1e-9), 3),
    }


def measure_partition(tau=2, count=40, size=60):
    from repro.core.partition import extract_partition
    from repro.core.treecache import TreeCache

    caches = [
        TreeCache(tree) for tree in make_kernels_workload(count)
    ]
    delta = 2 * tau + 1
    timings = {}
    for backend in ("python", "numpy"):
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            out = [
                extract_partition(c, 0, delta, backend=backend)
                for c in caches
            ]
            t = time.perf_counter() - t0
            if best is None or t < best[0]:
                best = (t, out)
        timings[backend] = best
    bits = lambda runs: [  # noqa: E731
        [(s.root_number, bytes(s.member_bits)) for s in subs] for subs in runs
    ]
    assert bits(timings["python"][1]) == bits(timings["numpy"][1])
    return {
        "delta": delta,
        "python_ms": round(timings["python"][0] * 1000, 2),
        "numpy_ms": round(timings["numpy"][0] * 1000, 2),
        "ratio": round(
            timings["python"][0] / max(timings["numpy"][0], 1e-9), 3
        ),
    }


def render(end_to_end, probe, partition) -> str:
    lines = ["== kernels: python reference vs numpy backend =="]
    for tau, m in end_to_end.items():
        lines.append(
            f"end-to-end tau={tau}: python {m['python_s']:.3f}s "
            f"numpy {m['numpy_s']:.3f}s ({m['ratio']:.2f}x) "
            f"candidates={m['candidates']} dedup={m['dedup_skips']}"
        )
    lines.append(
        f"probe phase tau={probe['tau']}: python {probe['python_s']:.3f}s "
        f"numpy {probe['numpy_s']:.3f}s ({probe['ratio']:.2f}x)"
    )
    lines.append(
        f"partition delta={partition['delta']}: "
        f"python {partition['python_ms']:.1f}ms "
        f"numpy {partition['numpy_ms']:.1f}ms ({partition['ratio']:.2f}x)"
    )
    return "\n".join(lines)


def test_backends_bit_identical_end_to_end(kernels_workload, scale,
                                           results_dir):
    from conftest import save_and_print

    end_to_end = measure_end_to_end(kernels_workload, repeats=2)
    probe = measure_probe(kernels_workload, repeats=2)
    partition = measure_partition()
    save_and_print(
        results_dir, "kernels", scale,
        render(end_to_end, probe, partition) + "\n",
    )


def test_smoke_guard_kernels_backend(kernels_workload):
    """CI regression guard: live numpy/python ratio vs the snapshot.

    Ratios, not absolute seconds, so the guard survives runner hardware
    differences: the numpy backend has regressed when its live
    end-to-end ratio falls below half the committed one.
    """
    if not SNAPSHOT_PATH.exists():
        pytest.skip("no committed BENCH_PR9.json")
    committed = json.loads(SNAPSHOT_PATH.read_text())
    metrics = measure_end_to_end(kernels_workload, repeats=2)
    for tau in TAUS:
        recorded = committed["end_to_end"][str(tau)]["ratio"]
        live = metrics[tau]["ratio"]
        assert live >= recorded / 2, (
            f"tau={tau}: numpy backend regressed: live python/numpy ratio "
            f"{live:.2f} < committed {recorded:.2f} / 2"
        )


def write_snapshot() -> dict:
    import numpy

    count = KERNELS_WORKLOAD_COUNTS["smoke"]
    trees = make_kernels_workload(count)
    end_to_end = measure_end_to_end(trees)
    probe = measure_probe(trees)
    partition = measure_partition()
    snapshot = {
        "description": (
            "Kernel backend comparison (PR 9): pure-python reference vs "
            "numpy flat-array kernels, end to end and per kernel, on the "
            "duplicate-heavy kernels workload (smoke scale). Regenerate "
            "with: python benchmarks/bench_kernels.py --snapshot"
        ),
        "numpy_version": numpy.__version__,
        "workload": {
            "count": count,
            **KERNELS_WORKLOAD_SHAPE,
            "seed": KERNELS_WORKLOAD_SEED,
        },
        "end_to_end": {str(tau): m for tau, m in end_to_end.items()},
        "kernels": {
            "probe": probe,
            "partition": partition,
        },
        "caveats": [
            "Single-CPU container; ratios are wall-clock best-of-3 on one "
            "core and carry run-to-run noise of a few percent.",
            "End-to-end ratios are ~1x at tau <= 3: verification, which "
            "has no numpy variant, dominates these workloads, so the numpy "
            "backend's win is confined to probe windows of ~a hundred "
            "entries or more.",
            "Both backends are bit-identical on every measurement here and "
            "under the tests/kernels/ matrix; the backend choice is a "
            "speed knob only.",
        ],
    }
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(render(end_to_end, probe, partition))
    print(f"wrote {SNAPSHOT_PATH}")
    return snapshot


if __name__ == "__main__":
    if "--snapshot" in sys.argv:
        write_snapshot()
    else:
        print(__doc__)
