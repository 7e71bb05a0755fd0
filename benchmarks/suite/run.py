"""The repository's benchmark: four named workloads, end-to-end metrics,
and a separate traced run for the per-layer numbers.

Run from the repository root (no build step; the sources under ``src``
are put on the path here)::

    python3 benchmarks/suite/run.py                        # all workloads
    python3 benchmarks/suite/run.py --workload probe-heavy --seed 7
    python3 benchmarks/suite/run.py --workload verify-heavy --trace 1
    python3 benchmarks/suite/run.py compare BASE.json ... -- CHANGE.json ...

A single workload runs in this process; several run one after another,
each in its own fresh subprocess.  Every metric is printed as
``workload metric value unit``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace 1``).  A result file with every metric, the
checks and the environment is written under ``benchmarks/suite/out/``
(or ``--out``).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]


def _parse_args(argv):
    import common

    spec = common.load_spec()
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=common.WORKLOADS,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seed", type=int, default=common.DEFAULT_SEED,
        help="input seed (default %(default)s; keep 2026 held out for "
        "re-checking claims)",
    )
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long the timed reps of one workload run (at least 3 reps)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run that reports per-layer metrics",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="result file to write")
    return parser.parse_args(argv)


def _default_out(args, workloads) -> Path:
    import common

    name = workloads[0] if len(workloads) == 1 else "all"
    trace = "-trace" if args.trace else ""
    return common.OUT_DIR / f"{name}-seed{args.seed}-{args.scale}{trace}.json"


def _run_one(workload, args, out: Path) -> dict:
    import common

    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=out.parent))
    try:
        if args.trace:
            import layers

            result = layers.traced_run(
                workload, args.seed, args.scale, scratch,
                trace_path=out.with_suffix(".trace.jsonl"),
            )
        else:
            import workloads

            result = workloads.run_workload(
                workload, args.seed, args.scale, args.seconds, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    payload = {
        "env": common.environment(args.seed, args.scale),
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "workloads": {workload: result},
    }
    common.write_result(out, payload)
    return payload


def _run_many(workloads, args, out: Path) -> dict:
    """Each workload in its own subprocess, one at a time; merged results."""
    import common

    merged = None
    for workload in workloads:
        part = out.with_name(f"{out.stem}.{workload}.json")
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--out", str(part),
        ]
        # The child's report is repeated below from its result file; its
        # stderr is shown only when it left no result behind.
        child = subprocess.run(cmd, check=False, capture_output=True,
                               text=True)
        try:
            payload = json.loads(part.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            sys.stderr.write(child.stderr)
            payload = {"workloads": {workload: {
                "correct": False, "attempted": 1, "failed": 1,
                "failures": ["workload process wrote no result"],
                "metrics": {},
            }}}
        if merged is None:
            merged = dict(payload)
            merged["workloads"] = {}
        merged["workloads"].update(payload["workloads"])
        part.unlink(missing_ok=True)
    common.write_result(out, merged)
    return merged


def _report(payload, args) -> int:
    import common

    spec = common.load_spec()
    table = common.metric_table(spec)
    group = "per_layer" if args.trace else "end_to_end"
    wanted = [entry["name"] for entry in spec[group]]
    results = payload["workloads"]
    correct = True
    summary = {}
    for workload, result in results.items():
        metrics = result["metrics"]
        for name, value in metrics.items():
            print(f"{workload} {name} {value!r} {table[name]['unit']}")
        for failure in result.get("failures", ()):
            print(f"{workload}: check failed: {failure}", file=sys.stderr)
        missing = [name for name in wanted if name not in metrics]
        if missing:
            print(f"{workload}: metrics not measured: {', '.join(missing)}",
                  file=sys.stderr)
        correct = correct and result["correct"] and not missing
        prefix = "" if len(results) == 1 else f"{workload}."
        for name in wanted:
            if name in metrics:
                summary[prefix + name] = {
                    "value": metrics[name], "unit": table[name]["unit"],
                }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": summary,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(SUITE_DIR))
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import common

    args = _parse_args(argv)
    workloads = args.workload or list(common.WORKLOADS)
    out = args.out or _default_out(args, workloads)
    if len(workloads) == 1:
        payload = _run_one(workloads[0], args, out)
    else:
        payload = _run_many(workloads, args, out)
    return _report(payload, args)


if __name__ == "__main__":
    sys.exit(main())
