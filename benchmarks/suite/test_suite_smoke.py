"""Smoke test of the benchmark suite (runs in tier-1).

Every workload runs at ``--scale smoke`` (tens of trees), each in its own
process as the suite runs them, plus one traced pass.  Asserts that every
metric ``BENCHMARK.json`` names is emitted with its unit, that the
correctness checks pass, and that the layer times plus ``other.s`` sum
to the traced wall.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import compare
import layers

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = common.load_spec()


def _run(tmp_path: Path, *args: str):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--scale", "smoke", "--seconds", "0",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    return proc.stdout.splitlines(), summary, json.loads(out.read_text())


def _assert_emitted(lines, summary, group, workloads=common.WORKLOADS):
    for workload in workloads:
        for entry in SPEC[group]:
            name, unit = entry["name"], entry["unit"]
            assert summary["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert any(
                line.startswith(f"{workload} {name} ")
                and line.endswith(f" {unit}")
                for line in lines
            ), f"{workload} {name} not printed"


def test_every_workload_emits_its_metrics(tmp_path):
    lines, summary, payload = _run(tmp_path)
    _assert_emitted(lines, summary, "end_to_end")
    for workload, result in payload["workloads"].items():
        assert result["correct"], result["failures"]
        assert result["digests"]["pairs"]
        for name in SPEC["end_to_end"]:
            assert result["metrics"][name["name"]] > 0
    stream = payload["workloads"]["stream-mixed"]["metrics"]
    for name in common.EXTRA_METRICS:
        assert name in stream
    assert payload["env"]["scale"] == "smoke"
    assert payload["env"]["nproc"] >= 1


def test_traced_pass_accounts_for_the_wall(tmp_path):
    # The two workloads whose tiers add metrics; every workload runs the
    # same replay.
    traced = ("verify-heavy-w2", "stream-mixed")
    lines, summary, payload = _run(
        tmp_path, "--trace", "1",
        *(arg for name in traced for arg in ("--workload", name)),
    )
    _assert_emitted(lines, summary, "per_layer", traced)
    time_metrics = {
        entry["name"] for entry in SPEC["per_layer"] if entry["unit"] == "s"
    }
    # Every per-layer time is either a layer of the sum or the sum's terms.
    assert time_metrics == set(layers.LAYER_TIMES) | {"other.s", "trace.wall.s"}
    for result in payload["workloads"].values():
        metrics = result["metrics"]
        total = sum(metrics[name] for name in layers.LAYER_TIMES)
        assert metrics["other.s"] >= 0
        assert total + metrics["other.s"] == pytest.approx(
            metrics["trace.wall.s"], rel=1e-9
        )
        assert Path(result["trace_file"]).stat().st_size > 0
    assert "parallel.verify_wall.s" in (
        payload["workloads"]["verify-heavy-w2"]["metrics"]
    )
    assert "wal.append.s" in payload["workloads"]["stream-mixed"]["metrics"]


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = tmp_path / "bare"
    shutil.copytree(RUN.parent, copy / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(common.SPEC_PATH, copy / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "probe-heavy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("base, change, bound, expected", [
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], 0.1, "improved"),
    ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], 0.1, "regressed"),
    ([10, 10.1, 9.9, 10, 10.05], [10.02, 10, 9.95, 10.1, 10], 0.1, "no change"),
    ([10, 14, 7, 12, 9], [10, 11, 9, 12, 10], 0.1, "unresolved"),
])
def test_compare_verdicts(base, change, bound, expected):
    assert compare.verdict(base, change, "lower", bound)[0] == expected
