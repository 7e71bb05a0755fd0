"""The library never imports numpy or the linter.

Run in a fresh interpreter, because the test process itself may have
numpy loaded by a plugin: a batch join, a ``workers=2`` join, a search
and a short stream must all finish with ``numpy`` and every
``repro.analysis`` module absent from ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """\
import sys

from repro import StreamingJoin, TreeCollection
from repro.datasets.synthetic import generate_forest

trees = generate_forest(30, seed=7)
trees += [tree.copy() for tree in trees[:6]]
col = TreeCollection.from_trees(trees)
serial = col.join(2).run().pairs
assert serial and col.join(2, workers=2).run().pairs == serial
assert col.search(trees[0], 2).run()
stream = StreamingJoin(tau=2)
for tree in trees[:10]:
    stream.add(tree)
stream.flush()
assert "numpy" not in sys.modules, "numpy was imported"
linter = sorted(name for name in sys.modules
                if name == "repro.analysis" or name.startswith("repro.analysis."))
assert not linter, f"the linter was imported: {linter}"
print("ok", len(serial))
"""


def test_library_runs_without_importing_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(SRC), "PATH": os.environ.get("PATH", "")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("ok")
