"""Tests for the command line interface (repro.cli)."""

import json

import pytest

from repro.cli import main
from repro.datasets.io import load_trees


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "forest.trees"
    code = main([
        "generate", "--dataset", "synthetic", "--count", "30",
        "--seed", "4", "--size", "15", "--out", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_requested_count(self, dataset_file):
        assert len(load_trees(dataset_file)) == 30

    def test_realistic_dataset(self, tmp_path):
        path = tmp_path / "sp.trees"
        assert main([
            "generate", "--dataset", "swissprot", "--count", "10",
            "--out", str(path),
        ]) == 0
        assert len(load_trees(path)) == 10


class TestStats:
    def test_prints_paper_style_line(self, dataset_file, capsys):
        assert main(["stats", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "30 trees" in out
        assert "average tree size" in out


class TestJoin:
    def test_default_join(self, dataset_file, capsys):
        assert main(["join", str(dataset_file), "--tau", "2"]) == 0
        assert "PRT(tau=2" in capsys.readouterr().out

    def test_pairs_output(self, dataset_file, capsys):
        assert main([
            "join", str(dataset_file), "--tau", "3", "--method", "nested_loop",
            "--pairs",
        ]) == 0
        out = capsys.readouterr().out
        assert "NL(tau=3" in out

    def test_json_output(self, dataset_file, capsys):
        assert main(["join", str(dataset_file), "--tau", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["tau"] == 1
        assert isinstance(payload["pairs"], list)

    def test_methods_agree_via_cli(self, dataset_file, capsys):
        pair_sets = {}
        for method in ("partsj", "str", "set", "nested_loop"):
            main(["join", str(dataset_file), "--tau", "2", "--method", method,
                  "--json"])
            payload = json.loads(capsys.readouterr().out)
            pair_sets[method] = {tuple(p[:2]) for p in payload["pairs"]}
        assert len(set(map(frozenset, pair_sets.values()))) == 1

    def test_multi_tau_shares_one_session(self, dataset_file, capsys):
        # Repeatable --tau: one prepared collection, one payload per tau.
        assert main([
            "join", str(dataset_file), "--tau", "1", "--tau", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        taus = [q["stats"]["tau"] for q in payload["queries"]]
        assert taus == [1, 2]
        # tau=2 results are a superset of tau=1's.
        pairs1 = {tuple(p[:2]) for p in payload["queries"][0]["pairs"]}
        pairs2 = {tuple(p[:2]) for p in payload["queries"][1]["pairs"]}
        assert pairs1 <= pairs2

    def test_multi_tau_text_output(self, dataset_file, capsys):
        assert main([
            "join", str(dataset_file), "--tau", "1", "--tau", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "PRT(tau=1" in out and "PRT(tau=2" in out

    def test_explain_prints_plan(self, dataset_file, capsys):
        assert main([
            "join", str(dataset_file), "--tau", "1", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "# plan:" in out
        plan_line = next(l for l in out.splitlines() if l.startswith("# plan:"))
        plan = json.loads(plan_line[len("# plan:"):])
        assert plan["kind"] == "join" and plan["tau"] == 1

    def test_explain_in_json_payload(self, dataset_file, capsys):
        assert main([
            "join", str(dataset_file), "--tau", "1", "--json", "--explain",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["method"] == "partsj"


class TestSearchAndTed:
    def test_search(self, dataset_file, capsys):
        first_tree = load_trees(dataset_file)[0].to_bracket()
        assert main([
            "search", str(dataset_file), "--query", first_tree, "--tau", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "0\t0" in out  # tree 0 at distance 0

    def test_multi_query_search_shares_one_session(self, dataset_file, capsys):
        trees = load_trees(dataset_file)
        assert main([
            "search", str(dataset_file),
            "--query", trees[0].to_bracket(),
            "--query", trees[1].to_bracket(),
            "--tau", "0",
        ]) == 0
        captured = capsys.readouterr()
        assert "0\t0" in captured.out  # query 0 found tree 0
        assert "1\t0" in captured.out  # query 1 found tree 1
        assert "# query 0:" in captured.err
        assert "# query 1:" in captured.err

    def test_search_explain(self, dataset_file, capsys):
        trees = load_trees(dataset_file)
        assert main([
            "search", str(dataset_file), "--query", trees[0].to_bracket(),
            "--tau", "1", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        plan_line = next(l for l in out.splitlines() if l.startswith("# plan:"))
        assert json.loads(plan_line[len("# plan:"):])["kind"] == "search"

    def test_ted(self, capsys):
        assert main(["ted", "{a{b}{c}}", "{a{b}}"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_ted_algorithm_flag(self, capsys):
        # `ted` has one exact algorithm: argparse rejects --algorithm.
        with pytest.raises(SystemExit) as exc:
            main(["ted", "{a}", "{b}", "--algorithm", "zhang_shasha"])
        assert exc.value.code == 2
        assert "--algorithm" in capsys.readouterr().err


class TestErrors:
    def test_repro_errors_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trees"
        bad.write_text("{oops\n")
        assert main(["stats", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_query_tree(self, dataset_file):
        assert main([
            "search", str(dataset_file), "--query", "{broken", "--tau", "1",
        ]) == 2


class TestPersistenceFlags:
    def test_join_save_then_load_index(self, dataset_file, tmp_path, capsys):
        snapshot = tmp_path / "forest.idx"
        assert main([
            "join", str(dataset_file), "--tau", "2", "--json",
            "--save-index", str(snapshot),
        ]) == 0
        first = capsys.readouterr()
        assert snapshot.exists()
        assert "saved session snapshot" in first.err
        assert main([
            "join", str(dataset_file), "--tau", "2", "--json",
            "--load-index", str(snapshot),
        ]) == 0
        second = capsys.readouterr()
        assert json.loads(second.out)["pairs"] == json.loads(first.out)["pairs"]

    def test_sidecar_auto_discovery(self, dataset_file, capsys):
        sidecar = dataset_file.with_name(dataset_file.name + ".repro-idx")
        assert main([
            "join", str(dataset_file), "--tau", "1", "--json",
            "--save-index", str(sidecar),
        ]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["join", str(dataset_file), "--tau", "1", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["pairs"] == cold["pairs"]

    def test_corrupt_sidecar_warns_and_rebuilds(self, dataset_file, capsys):
        import pytest as _pytest

        sidecar = dataset_file.with_name(dataset_file.name + ".repro-idx")
        assert main([
            "join", str(dataset_file), "--tau", "1", "--json",
            "--save-index", str(sidecar),
        ]) == 0
        cold = json.loads(capsys.readouterr().out)
        blob = bytearray(sidecar.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        sidecar.write_bytes(bytes(blob))
        with _pytest.warns(UserWarning, match="rebuilding the session cold"):
            assert main([
                "join", str(dataset_file), "--tau", "1", "--json",
            ]) == 0
        assert json.loads(capsys.readouterr().out)["pairs"] == cold["pairs"]

    def test_search_save_and_load_index(self, dataset_file, tmp_path, capsys):
        trees = load_trees(dataset_file)
        snapshot = tmp_path / "search.idx"
        query = trees[0].to_bracket()
        assert main([
            "search", str(dataset_file), "--query", query, "--tau", "1",
            "--save-index", str(snapshot),
        ]) == 0
        first = capsys.readouterr().out
        assert main([
            "search", str(dataset_file), "--query", query, "--tau", "1",
            "--load-index", str(snapshot),
        ]) == 0
        assert capsys.readouterr().out == first

    def test_stats_snapshot_provenance(self, dataset_file, tmp_path, capsys):
        snapshot = tmp_path / "forest.idx"
        main(["join", str(dataset_file), "--tau", "1",
              "--save-index", str(snapshot)])
        capsys.readouterr()
        assert main(["stats", "--snapshot", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "format v1" in out
        assert "checksums ok" in out
        assert "prep:0" in out

    def test_stats_snapshot_reports_corruption(self, dataset_file, tmp_path,
                                               capsys):
        snapshot = tmp_path / "forest.idx"
        main(["join", str(dataset_file), "--tau", "1",
              "--save-index", str(snapshot)])
        capsys.readouterr()
        blob = bytearray(snapshot.read_bytes())
        blob[-2] ^= 0xFF
        snapshot.write_bytes(bytes(blob))
        assert main(["stats", "--snapshot", str(snapshot)]) == 2
        assert "CORRUPT" in capsys.readouterr().out


class TestStreamWALFlags:
    BRACKETS = "{a{b}{c}}\n{a{b}}\n{a{b}{c{d}}}\n"

    def _run_stream(self, monkeypatch, argv, stdin=""):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(stdin))
        return main(argv)

    def test_stream_writes_a_replayable_wal(self, tmp_path, monkeypatch,
                                            capsys):
        from repro.persist import scan_wal

        wal = tmp_path / "arrivals.wal"
        assert self._run_stream(monkeypatch, [
            "join", "--stream", "--tau", "1", "--wal", str(wal),
        ], stdin=self.BRACKETS) == 0
        live = capsys.readouterr().out
        assert scan_wal(wal)["brackets"] == self.BRACKETS.split()
        # Replay the log with nothing new on stdin: same pairs come back.
        assert self._run_stream(monkeypatch, [
            "join", "--stream", "--tau", "1", "--wal", str(wal), "--recover",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == live
        assert "recovered 3 trees" in captured.err

    def test_recover_continues_ingesting(self, tmp_path, monkeypatch, capsys):
        from repro.persist import scan_wal

        wal = tmp_path / "arrivals.wal"
        self._run_stream(monkeypatch, [
            "join", "--stream", "--tau", "1", "--wal", str(wal),
        ], stdin=self.BRACKETS)
        capsys.readouterr()
        assert self._run_stream(monkeypatch, [
            "join", "--stream", "--tau", "1", "--wal", str(wal), "--recover",
            "--json",
        ], stdin="{a{b}{c}{d}}\n") == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["recovered"]["records"] == 3
        assert scan_wal(wal)["salvage"]["records"] == 4

    def test_recover_requires_wal(self, monkeypatch, capsys):
        assert self._run_stream(monkeypatch, [
            "join", "--stream", "--tau", "1", "--recover",
        ]) == 2
        assert "--recover needs --wal" in capsys.readouterr().err

    def test_recover_rejects_mismatched_tau(self, tmp_path, monkeypatch,
                                            capsys):
        wal = tmp_path / "arrivals.wal"
        self._run_stream(monkeypatch, [
            "join", "--stream", "--tau", "1", "--wal", str(wal),
        ], stdin=self.BRACKETS)
        capsys.readouterr()
        assert self._run_stream(monkeypatch, [
            "join", "--stream", "--tau", "2", "--wal", str(wal), "--recover",
        ]) == 2
        assert "does not match the recovered log" in capsys.readouterr().err
