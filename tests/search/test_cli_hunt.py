"""CLI tests for the ``hunt`` verb."""

from __future__ import annotations

import json
import shlex

import pytest

from repro.cli import main


class TestHuntCli:
    @pytest.fixture(autouse=True)
    def _sandbox_cwd(self, tmp_path, monkeypatch):
        """Hunts drop scenario + trace files in the CWD by default."""
        monkeypatch.chdir(tmp_path)

    def test_hunt_smoke_reports_comparison_and_best(self, capsys):
        assert main(
            ["hunt", "--n", "8", "--budget", "10", "--seed", "2",
             "--baseline-trials", "2", "--no-shrink"]
        ) == 0
        out = capsys.readouterr().out
        assert "worst cases on balls-into-leaves n=8" in out
        assert "worst schedule" in out
        assert "genotype" in out
        assert "reproduce with: python -m repro hunt" in out

    def test_hunt_shrink_emits_regression_snippet(self, capsys):
        assert main(
            ["hunt", "--n", "8", "--budget", "8", "--seed", "2",
             "--baseline-trials", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "shrunk to" in out
        assert "bit-identical on the reference and columnar kernels" in out
        assert "def test_hunt_regression_" in out

    def test_hunt_out_jsonl_rows_are_the_history(self, tmp_path, capsys):
        out = tmp_path / "hunt.jsonl"
        assert main(
            ["hunt", "--n", "8", "--budget", "6", "--seed", "3",
             "--baseline-trials", "1", "--no-shrink", "--out", str(out)]
        ) == 0
        assert "6 JSONL rows written" in capsys.readouterr().err
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6
        assert [row["index"] for row in rows] == list(range(6))
        assert all(row["strategy"] == "hillclimb" for row in rows)
        assert all("schedule" in row and "score" in row for row in rows)

    def test_hunt_jsonl_identical_across_executors(
        self, tmp_path, capsys, pool_starts
    ):
        """The determinism satellite, via the CLI surface."""
        paths = []
        for name, extra in (
            ("serial.jsonl", ["--executor", "serial"]),
            ("process.jsonl", ["--executor", "process", "--workers", "2"]),
        ):
            path = tmp_path / name
            assert main(
                ["hunt", "--n", "8", "--budget", "8", "--seed", "5",
                 "--baseline-trials", "1", "--no-shrink", "--out", str(path)]
                + extra
            ) == 0
            paths.append(path)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # The search and the bundled baseline share the command's one pool.
        assert len(pool_starts) == 1

    def test_reproduce_line_reproduces_a_monitored_hunt(self, tmp_path, capsys):
        # --monitor changes the rows (a monitored run can capture a
        # SimulationError), so the printed command must carry it.
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        assert main(
            ["hunt", "--n", "16", "--budget", "30", "--seed", "3",
             "--fault-family", "omission", "--monitor", "full",
             "--baseline-trials", "1", "--no-shrink", "--out", str(first)]
        ) == 0
        prefix = "reproduce with: python -m repro "
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(prefix)
        ]
        assert main(shlex.split(line[len(prefix):]) + ["--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_hunt_rejects_unknown_objective(self, capsys):
        with pytest.raises(SystemExit):
            main(["hunt", "--objective", "nope"])

    def test_hunt_rejects_bad_sizes_cleanly(self, capsys):
        assert main(["hunt", "--budget", "0"]) == 2
        assert main(["hunt", "--baseline-trials", "0"]) == 2
        assert main(["hunt", "--budget", "1", "--seeds-per-schedule", "2"]) == 2
        assert main(["hunt", "--max-crashes", "0"]) == 2
        assert main(["hunt", "--max-crashes", "-1"]) == 2
        assert main(["hunt", "--max-round", "0"]) == 2
        assert main(["hunt", "--top", "0"]) == 2
        assert main(["hunt", "--top", "-5"]) == 2
        assert main(
            ["hunt", "--crash-budget", "0", "--budget", "5", "--n", "8",
             "--baseline-trials", "1", "--no-scenario"]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert "error: max_crashes must be >= 1, got -1" in err
        assert "error: max_round must be >= 1, got 0" in err
        assert "error: --top must be >= 1, got 0" in err
        assert "error: --top must be >= 1, got -5" in err
        assert "error: crash_budget must be >= 1" in err

    def test_hunt_flood_skips_columnar_replay_cleanly(self, capsys):
        assert main(
            ["hunt", "--algorithm", "flood", "--n", "8", "--budget", "4",
             "--seed", "1", "--baseline-trials", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "columnar kernel not applicable" in out
