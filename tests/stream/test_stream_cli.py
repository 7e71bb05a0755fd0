"""CLI streaming mode: ``join --stream`` and ``stats --stream``."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.datasets.io import load_trees
from repro.persist.wal import scan_wal

SRC = Path(__file__).resolve().parents[2] / "src"

BRACKET_LINES = "\n".join([
    "{a{b}{c{d}}}",
    "",                 # blank lines are skipped
    "# a comment",      # so are comment lines
    "{a{b}{c{e}}}",
    "{x{y{z{w{v}}}}{u}}",
]) + "\n"


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


class TestJoinStream:
    def test_emits_pairs_and_summary(self, monkeypatch, capsys):
        feed(monkeypatch, BRACKET_LINES)
        assert main(["join", "--stream", "--tau", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["0\t1\t1"]
        assert "streamed 3 trees" in captured.err

    def test_json_events_and_stats(self, monkeypatch, capsys):
        feed(monkeypatch, BRACKET_LINES)
        assert main(["join", "--stream", "--tau", "1", "--json"]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()]
        assert lines[0] == {"pair": [0, 1, 1]}
        stats = lines[-1]["stats"]
        assert stats["trees"] == 3
        assert stats["results"] == 1
        assert "ingest_rate" in stats and "index_entries" in stats

    def test_ndjson_format(self, monkeypatch, capsys):
        payload = "\n".join(
            json.dumps({"tree": b, "id": k})
            for k, b in enumerate(("{a{b}}", "{a{c}}"))
        ) + "\n"
        feed(monkeypatch, payload)
        assert main([
            "join", "--stream", "--tau", "1", "--format", "ndjson",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t1\t1"]

    def test_rejects_workers_and_micro_batch(self, monkeypatch, capsys):
        # A stream verifies inline, in this process: --workers other than
        # 1 is an error naming the flag, and --micro-batch no longer exists.
        feed(monkeypatch, BRACKET_LINES)
        assert main(["join", "--stream", "--tau", "1", "--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err
        feed(monkeypatch, BRACKET_LINES)
        with pytest.raises(SystemExit) as exit_info:
            main(["join", "--stream", "--tau", "1", "--micro-batch", "2"])
        assert exit_info.value.code == 2

    def test_matches_batch_join_on_same_data(self, monkeypatch, tmp_path,
                                             capsys):
        path = tmp_path / "forest.trees"
        assert main([
            "generate", "--count", "25", "--seed", "6", "--size", "12",
            "--out", str(path),
        ]) == 0
        capsys.readouterr()  # discard the generate confirmation line
        assert main([
            "join", str(path), "--tau", "2", "--pairs", "--json",
        ]) == 0
        batch = json.loads(capsys.readouterr().out)["pairs"]
        feed(monkeypatch, "\n".join(
            tree.to_bracket() for tree in load_trees(path)
        ))
        assert main(["join", "--stream", "--tau", "2"]) == 0
        out = capsys.readouterr().out
        streamed = [[int(x) for x in line.split("\t")]
                    for line in out.splitlines()]
        assert sorted(streamed) == sorted(batch)

    def test_rejects_input_file_and_non_partsj(self, monkeypatch, capsys):
        feed(monkeypatch, BRACKET_LINES)
        assert main(["join", "somefile", "--stream", "--tau", "1"]) == 2
        assert "stdin" in capsys.readouterr().err
        feed(monkeypatch, BRACKET_LINES)
        assert main([
            "join", "--stream", "--tau", "1", "--method", "set",
        ]) == 2

    def test_missing_input_without_stream(self, capsys):
        assert main(["join", "--tau", "1"]) == 2
        assert "dataset file" in capsys.readouterr().err

    def test_bad_ndjson_line(self, monkeypatch, capsys):
        feed(monkeypatch, "not json\n")
        assert main([
            "join", "--stream", "--tau", "1", "--format", "ndjson",
        ]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ['{"tree": 5}', '[1, 2]', '{"other": "x"}'])
    def test_ndjson_without_bracket_string(self, monkeypatch, capsys, line):
        # Malformed payloads must fail as clean CLI errors, not tracebacks.
        feed(monkeypatch, line + "\n")
        assert main([
            "join", "--stream", "--tau", "1", "--format", "ndjson",
        ]) == 2
        assert "line 1" in capsys.readouterr().err


MALFORMED_LINES = "\n".join([
    "{a{b}{c{d}}}",
    "{{oops",            # line 2: unbalanced bracket
    "{a{b}{c{e}}}",
    "}stray",            # line 4: malformed too
    "{x{y{z{w{v}}}}{u}}",
]) + "\n"


class TestClosedStdout:
    def test_reader_leaving_early_ends_quietly_with_the_log_synced(
        self, tmp_path
    ):
        # `... | head -1`: 300 equal trees make ~45k pair lines, far more
        # than a pipe buffers, so a write fails once the reader has gone.
        source = tmp_path / "same.trees"
        source.write_text("{a{b}{c}}\n" * 300, encoding="utf-8")
        wal = tmp_path / "arrivals.wal"
        with open(source, encoding="utf-8") as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "join", "--stream",
                 "--tau", "2", "--wal", str(wal)],
                stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={"PYTHONPATH": str(SRC), "PATH": os.environ.get("PATH", "")},
            )
            assert proc.stdout.readline() == b"0\t1\t0\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Error" not in err, err
        salvage = scan_wal(wal)["salvage"]
        assert salvage["torn_bytes"] == 0 and 2 <= salvage["records"] < 300


class TestJoinStreamOnError:
    def test_default_fail_aborts_with_line_number(self, monkeypatch, capsys):
        feed(monkeypatch, MALFORMED_LINES)
        assert main(["join", "--stream", "--tau", "1"]) == 2
        captured = capsys.readouterr()
        assert "stdin line 2" in captured.err
        # Nothing after the bad line was processed.
        assert "stdin line 4" not in captured.err

    def test_skip_quarantines_and_finishes(self, monkeypatch, capsys):
        feed(monkeypatch, MALFORMED_LINES)
        assert main([
            "join", "--stream", "--tau", "1", "--on-error", "skip",
        ]) == 0
        captured = capsys.readouterr()
        # The join completed over the healthy lines.
        assert captured.out.splitlines() == ["0\t1\t1"]
        assert "# quarantined stdin line 2" in captured.err
        assert "# quarantined stdin line 4" in captured.err
        assert "streamed 3 trees" in captured.err
        assert "quarantined 2" in captured.err

    def test_skip_json_emits_quarantine_events(self, monkeypatch, capsys):
        feed(monkeypatch, MALFORMED_LINES)
        assert main([
            "join", "--stream", "--tau", "1", "--on-error", "skip", "--json",
        ]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()]
        quarantines = [e["quarantine"] for e in lines if "quarantine" in e]
        assert [q["line"] for q in quarantines] == [2, 4]
        assert all("error" in q for q in quarantines)
        stats = lines[-1]["stats"]
        assert stats["trees"] == 3
        assert stats["quarantined_trees"] == 2
        assert len(stats["extra"]["quarantine_log"]) == 2

    def test_skip_ndjson_bad_json_line(self, monkeypatch, capsys):
        feed(monkeypatch, '{"tree": "{a{b}}"}\nnot json\n{"tree": "{a{c}}"}\n')
        assert main([
            "join", "--stream", "--tau", "1", "--format", "ndjson",
            "--on-error", "skip", "--json",
        ]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()]
        assert [e["quarantine"]["line"] for e in lines
                if "quarantine" in e] == [2]
        assert lines[-1]["stats"]["trees"] == 2


class TestStatsStream:
    def test_reports_ingest_rate_and_index(self, monkeypatch, capsys):
        feed(monkeypatch, BRACKET_LINES)
        assert main(["stats", "--stream", "--tau", "2"]) == 0
        out = capsys.readouterr().out
        assert "streamed 3 trees" in out
        assert "trees/s" in out
        assert "warm index" in out
        assert "size histogram" in out

    def test_missing_input_without_stream(self, capsys):
        assert main(["stats"]) == 2
        assert "dataset file" in capsys.readouterr().err
