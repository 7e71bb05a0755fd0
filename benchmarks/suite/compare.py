"""``run.py compare BASE.json ... -- CHANGE.json ...``: judge a change.

Each file is a result file of ``run.py``.  Runs are paired in the order
given (the i-th base run with the i-th change run of the same workload),
so alternate the two sides when collecting them.  For every workload and
metric it prints each side's median and quartiles, the share of pairs
the change won, and a verdict:

- ``improved``: the change won at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the base's
  interquartile range;
- ``regressed``: the change's median is worse than the base's by more
  than the metric's bound;
- ``unresolved``: neither, and the base's own spread (IQR / median) is
  wider than the bound, unless every change run beat every base run;
- ``no change``: otherwise.

Bounds come from ``BENCHMARK.json`` (``end_to_end``) and
``common.EXTRA_METRICS``; per-layer metrics have none and get only the
``improved`` test, reported as ``improved`` or ``-``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import common

WIN_SHARE = 0.9


def _load(paths) -> dict:
    """workload -> metric -> values, in file order."""
    runs: dict = {}
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, result in payload["workloads"].items():
            for name, value in result["metrics"].items():
                runs.setdefault(workload, {}).setdefault(name, []).append(value)
    return runs


def verdict(base, change, better, bound) -> tuple[str, float]:
    """(verdict, share of pairs the change won) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    share = wins / len(pairs) if pairs else 0.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    q1, q3 = common.quartiles(base)
    gain = sign * (base_median - change_median)
    if pairs and share >= WIN_SHARE and gain > q3 - q1:
        return "improved", share
    if bound is None:
        return "-", share
    if -gain > bound * abs(base_median):
        return "regressed", share
    spread = (q3 - q1) / abs(base_median) if base_median else 0.0
    if sign > 0:
        beats_all = max(change) < min(base)
    else:
        beats_all = min(change) > max(base)
    if spread > bound and not beats_all:
        return "unresolved", share
    return "no change", share


def _fmt(values) -> str:
    q1, q3 = common.quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv) -> int:
    if "--" not in argv:
        print("usage: run.py compare BASE.json ... -- CHANGE.json ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    base_paths, change_paths = argv[:split], argv[split + 1:]
    if not base_paths or not change_paths:
        print("compare: need at least one file on each side", file=sys.stderr)
        return 2
    table = common.metric_table(common.load_spec())
    base, change = _load(base_paths), _load(change_paths)
    regressed = False
    print(f"{'workload':16} {'metric':28} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'won':>5}  verdict")
    for workload in sorted(set(base) & set(change)):
        names = [n for n in table if n in base[workload] and n in change[workload]]
        for name in names:
            spec = table[name]
            b, c = base[workload][name], change[workload][name]
            bound = spec["bound"] if spec["group"] in ("end_to_end", "extra") else None
            better = spec["better"] or "lower"
            result, share = verdict(b, c, better, bound)
            regressed = regressed or result == "regressed"
            print(f"{workload:16} {name:28} {_fmt(b):34} {_fmt(c):34} "
                  f"{share:5.0%}  {result}")
    return 1 if regressed else 0
