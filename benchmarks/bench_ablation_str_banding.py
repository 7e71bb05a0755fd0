"""Ablation: STR's threshold string-edit kernel vs the paper's full string DP.

The paper's STR pays the full ``O(n^2)`` edit-distance DP per window pair,
which is why its candidate-generation bars dominate Figure 10.  Our STR
(``banded=True``, named after the banded DP the kernel replaced) instead
asks :mod:`repro.ted.string_edit`'s threshold kernel whether each
distance is within ``tau``: at most ``(tau + 1)**2`` run lookups on the
records' traversal codes.  This benchmark quantifies the speedup and
asserts that both give the same candidates and results on real trees.
"""

from repro.bench.experiments import run_ablation_str_banding
from repro.bench.reporting import format_table

from conftest import save_and_print


def test_ablation_str_banding(benchmark, scale, results_dir):
    cells = benchmark.pedantic(
        lambda: run_ablation_str_banding(scale=scale),
        rounds=1, iterations=1,
    )
    rows = []
    for tau in scale.taus:
        full = next(
            c for c in cells if c.x_value == tau and c.method == "STR[full]"
        )
        banded = next(
            c for c in cells if c.x_value == tau and c.method == "STR[banded]"
        )
        assert full.results == banded.results
        assert full.candidates == banded.candidates
        speedup = full.candidate_time / max(banded.candidate_time, 1e-9)
        rows.append([
            tau,
            f"{full.candidate_time:.3f}",
            f"{banded.candidate_time:.3f}",
            f"{speedup:.1f}x",
            full.candidates,
        ])
    table = format_table(
        ["tau", "full DP cand-gen (s)", "banded cand-gen (s)", "speedup",
         "candidates"],
        rows,
    )
    text = (
        f"== Ablation: STR banded vs full string DP (swissprot-like, "
        f"scale={scale.name}, n={scale.ablation_count}) ==\n{table}\n"
    )
    save_and_print(results_dir, "ablation_str_banding", scale, text)
