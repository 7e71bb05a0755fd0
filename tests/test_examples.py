"""The shipped examples must run cleanly end to end.

Each example is imported and its ``main()`` executed with stdout captured;
assertion failures inside the examples (they self-check their joins) fail
the test.  This keeps documentation code from rotting.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart",
    "session_reuse",
    "session_persist",
    "session_observe",
    "xml_near_duplicates",
    "rna_motifs",
    "sentence_paraphrases",
    "streaming_service",
]


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"


def test_examples_directory_complete():
    present = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert {"quickstart", "session_reuse", "session_persist",
            "session_observe", "xml_near_duplicates", "rna_motifs",
            "sentence_paraphrases", "benchmark_tour"} <= present


def test_quickstart_mentions_its_own_invariants(capsys):
    module = load_example("quickstart")
    module.main()
    out = capsys.readouterr().out
    assert "Similarity join" in out
    assert "agrees" in out  # the baseline cross-check ran
