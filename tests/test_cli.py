"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import VERBS, _build_parser, _parse_args, main

SRC = Path(__file__).resolve().parents[1] / "src"

#: What the profile workloads (``benchmarks/profile/run.py`` at seed 0,
#: set-up included), the CI smoke steps and the EXPERIMENTS.md quick
#: start run.
COMMANDS = {
    "sweep-ff": "batch --algorithms balls-into-leaves,early-terminating "
    "--sizes 256,1024 --trials 24 --seed 0 --out rows.jsonl",
    "sweep-faults": "batch --algorithms balls-into-leaves --sizes 32,256 "
    "--adversary random:rate=0.1 --adversary sandwich --trials 16 --seed 0 "
    "--out rows.jsonl",
    "hunt": "hunt --n 16 --budget 200 --fault-family mixed "
    "--baseline-trials 2 --seed 0 --no-scenario --out hunt.jsonl",
    "tail": "tail --n 256 --trials 64 --k-min 2 --k-max 3 --chunk 32 "
    "--executor process --workers 2 --seed 0 --out tail.jsonl",
    "inspect-hunt": "hunt --n 16 --budget 200 --fault-family mixed "
    "--baseline-trials 2 --seed 0 --out hunt.jsonl --scenario-out scenario.json",
    "inspect-batch": "batch --algorithms balls-into-leaves --sizes 64 "
    "--adversary random:rate=0.1 --trials 32 --seed 0 --out rows.jsonl",
    "inspect-stats": "stats rows.jsonl hunt.jsonl --out stats.txt",
    "inspect-explore": "explore scenario.json --out timeline.html",
    "ci-stacked": "batch --algorithms balls-into-leaves --sizes 64 "
    "--adversary none --adversary random:rate=0.2 --adversary sandwich "
    "--trials 16 --seed 1 --monitor cheap",
    "ci-omission": "batch --algorithms balls-into-leaves --sizes 16 "
    "--adversary omission:p=0.2 "
    "--adversary omission-targeted:count=1,first=2,last=5 "
    "--trials 16 --seed 1 --no-check --capture-errors",
    "ci-hunt": "hunt --objective rounds --strategy random --seed 1 "
    "--budget 40 --n 8 --baseline-trials 2 --executor process --workers 2 "
    "--out hunt_smoke_process.jsonl",
    "ci-obs-hunt": "hunt --fault-family omission --seed 7 --budget 50 "
    "--n 16 --baseline-trials 1 --no-shrink --telemetry "
    "--scenario-out obs_scenario.json --out obs_hunt.jsonl",
    "ci-obs-explore": "explore obs_scenario.json --out obs_timeline.html",
    "ci-obs-stats": "stats obs_hunt.jsonl",
    "ci-tail": "tail --n 64 --trials 32 --k-min 2 --k-max 3 --growth 2 "
    "--seed 1 --chunk 8 --executor process --workers 2 "
    "--out tail_smoke_process.jsonl",
    "ci-lint": "lint src/",
    "ci-lint-rules": "lint --rules",
    "ci-fault": "run EXP-FAULT --scale smoke",
    "list": "list",
    "run": "run EXP-T2 --scale smoke --workers 8",
    "all": "all --scale smoke",
    "demo": "demo --n 32",
}


class TestVerbTable:
    @pytest.mark.parametrize("command", list(COMMANDS.values()), ids=list(COMMANDS))
    def test_the_invoked_verb_parses_as_with_every_verb_built(self, command):
        argv = shlex.split(command)
        assert _parse_args(argv) == _build_parser(VERBS).parse_args(argv)

    def test_every_verb_is_covered(self):
        assert {shlex.split(command)[0] for command in COMMANDS.values()} == set(VERBS)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T2" in out
        assert "EXP-DET" in out

    def test_demo(self, capsys):
        assert main(["demo", "--n", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "renamed n=8" in out
        assert "-> name" in out

    def test_demo_other_algorithm(self, capsys):
        assert main(["demo", "--n", "6", "--algorithm", "early-terminating"]) == 0
        assert "early-terminating" in capsys.readouterr().out

    def test_run_smoke(self, capsys):
        assert main(["run", "EXP-F4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "EXP-F4" in out
        assert "gateway" in out

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "EXP-NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["run", "EXP-F4", "--scale", "smoke", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert "EXP-F4" in out_file.read_text()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_demo_rejects_n_below_one_cleanly(self, n, capsys):
        assert main(["demo", "--n", n]) == 2
        assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"

    @pytest.mark.parametrize(
        "executor", [[], ["--executor", "process"]], ids=["default", "process"]
    )
    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "verb",
        [
            ["batch", "--sizes", "8", "--trials", "4"],
            ["hunt", "--n", "8", "--budget", "4", "--baseline-trials", "1"],
            ["tail", "--n", "16", "--trials", "4"],
            ["run", "EXP-F4", "--scale", "smoke"],
            ["all", "--scale", "smoke"],
        ],
        ids=["batch", "hunt", "tail", "run", "all"],
    )
    def test_workers_below_one_fail_cleanly(
        self, verb, workers, executor, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(verb + executor + ["--workers", workers]) == 2
        err = capsys.readouterr().err
        assert "error: workers must be >= 1" in err.splitlines()[-1]
        assert "Traceback" not in err
        # The check comes before any work: `all` starts no experiment.
        assert "... running" not in err


class TestBatchCli:
    def test_batch_renders_one_row_per_cell(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--algorithms", "balls-into-leaves,flood",
                    "--sizes", "8,16",
                    "--adversary", "none",
                    "--adversary", "random:rate=0.2",
                    "--trials", "2",
                    "--seed", "1",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "scenario matrix: 16 trials" in captured.out
        assert "random:rate=0.2" in captured.out
        assert captured.out.count("flood") == 4  # one row per (n, adversary) cell
        assert "ran 16 trials via the serial executor" in captured.err

    def test_batch_process_executor_prints_identical_table(self, capsys):
        argv = ["batch", "--algorithms", "flood", "--sizes", "8", "--trials", "3"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--executor", "process", "--workers", "2"]) == 0
        process_out = capsys.readouterr().out
        # Identical cells; only the executor named in the note differs.
        assert process_out.replace("executor=process", "executor=serial") == serial_out

    def test_batch_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "cells.csv"
        assert (
            main(["batch", "--algorithms", "flood", "--sizes", "8", "--trials", "2",
                  "--csv", str(csv_path)])
            == 0
        )
        capsys.readouterr()
        content = csv_path.read_text()
        assert content.splitlines()[0].startswith("algorithm,n,adversary,trials")
        assert "flood,8,none,2" in content

    def test_batch_unknown_algorithm_fails_cleanly(self, capsys):
        assert main(["batch", "--algorithms", "quantum", "--sizes", "8"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_batch_unknown_adversary_fails_cleanly(self, capsys):
        assert (
            main(["batch", "--algorithms", "flood", "--sizes", "8",
                  "--adversary", "byzantine"])
            == 2
        )
        assert "unknown adversary" in capsys.readouterr().err

    def test_run_threads_workers_through_batched_experiments(self, capsys):
        assert main(["run", "EXP-T3", "--scale", "smoke", "--workers", "2"]) == 0
        assert "EXP-T3" in capsys.readouterr().out

    def test_run_maps_every_sweep_through_one_pool(self, capsys, pool_starts):
        # EXP-T2 runs two sweeps; both share the command's executor.
        assert main(["run", "EXP-T2", "--scale", "smoke", "--workers", "2"]) == 0
        assert "EXP-T2" in capsys.readouterr().out
        assert len(pool_starts) == 1


class TestKernelCli:
    def test_demo_reports_columnar_kernel(self, capsys):
        assert main(["demo", "--n", "8", "--kernel", "columnar"]) == 0
        assert "(columnar kernel)" in capsys.readouterr().out

    def test_demo_reference_kernel(self, capsys):
        assert main(["demo", "--n", "8", "--kernel", "reference"]) == 0
        assert "(reference kernel)" in capsys.readouterr().out

    def test_demo_pinned_columnar_rejects_flood_cleanly(self, capsys):
        assert main(["demo", "--n", "8", "--algorithm", "flood",
                     "--kernel", "columnar"]) == 2
        assert "cannot run this simulation" in capsys.readouterr().err

    def test_batch_kernel_pinning_matches_auto_output(self, capsys):
        argv = ["batch", "--algorithms", "balls-into-leaves", "--sizes", "16",
                "--trials", "3"]
        assert main(argv + ["--kernel", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(argv + ["--kernel", "columnar"]) == 0
        columnar_out = capsys.readouterr().out
        assert columnar_out == reference_out

    def test_batch_vectorized_kernel_matches_reference_output(self, capsys):
        from repro.sim.vectorized import vectorized_available

        if not vectorized_available():
            pytest.skip("numpy not installed (the .[fast] extra)")
        argv = ["batch", "--algorithms", "balls-into-leaves", "--sizes", "16",
                "--trials", "3"]
        assert main(argv + ["--kernel", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(argv + ["--kernel", "vectorized"]) == 0
        vectorized_out = capsys.readouterr().out
        assert vectorized_out == reference_out

    def test_demo_vectorized_kernel_or_clean_install_hint(self, capsys):
        from repro.sim.vectorized import vectorized_available

        code = main(["demo", "--n", "8", "--kernel", "vectorized"])
        captured = capsys.readouterr()
        if vectorized_available():
            assert code == 0
            assert "(vectorized kernel)" in captured.out
        else:
            assert code == 2
            assert "numpy" in captured.err

    def test_run_threads_kernel_through_experiments(self, capsys):
        assert main(["run", "EXP-T2", "--scale", "smoke",
                     "--kernel", "reference"]) == 0
        assert "EXP-T2" in capsys.readouterr().out


class TestJsonlOut:
    def test_batch_out_jsonl_writes_per_trial_rows(self, tmp_path, capsys):
        out = tmp_path / "trials.jsonl"
        assert main(["batch", "--algorithms", "balls-into-leaves", "--sizes", "8",
                     "--trials", "3", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "3 JSONL rows written" in captured.err
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["algorithm"] == "balls-into-leaves"
        assert rows[0]["n"] == 8
        assert rows[0]["adversary"] == "none"
        # 3 trials x 8 balls sit below the stacking floor: per-trial.
        assert rows[0]["kernel"] == "columnar"
        assert {row["seed"] for row in rows} == {0, 1, 2}
        assert all(row["rounds"] >= 3 for row in rows)

    def test_run_out_jsonl_writes_per_cell_rows(self, tmp_path, capsys):
        out = tmp_path / "cells.jsonl"
        assert main(["run", "EXP-T2", "--scale", "smoke", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows
        assert all(row["experiment"] == "EXP-T2" for row in rows)
        # Every run/all row records the kernel-selection mode it ran under.
        assert all(row["kernel"] == "auto" for row in rows)
        tables = {row["table"] for row in rows}
        assert any("Rounds to rename" in title for title in tables)
        first = rows[0]
        assert first["n"] == "16"  # table cells persist as formatted strings

    @pytest.mark.parametrize(
        "experiment, label", [("EXP-T2", "reference"), ("EXP-DET", "auto")]
    )
    def test_run_rows_name_a_pinned_kernel_only_where_it_applied(
        self, tmp_path, capsys, experiment, label
    ):
        # EXP-DET takes no kernel, so it ran under auto whatever was pinned.
        out = tmp_path / "cells.jsonl"
        assert main(["run", experiment, "--scale", "smoke", "--kernel",
                     "reference", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows
        assert {row["kernel"] for row in rows} == {label}

    def test_non_jsonl_out_still_writes_text_report(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["batch", "--algorithms", "flood", "--sizes", "8",
                     "--trials", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "scenario matrix" in out.read_text()


class TestFaultAdversaryCli:
    """The fault-family grammar and error surface of the CLI verbs."""

    @pytest.mark.parametrize("name", ["gremlin", "delay", "corrupt"])
    def test_unknown_family_exit_code_names_accepted_families(
        self, capsys, name
    ):
        assert main(["batch", "--algorithms", "balls-into-leaves",
                     "--sizes", "8", "--adversary", f"{name}:x=1",
                     "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert f"unknown adversary '{name}'" in err
        accepted = err.split("choose from", 1)[1]
        for family in ("'omission'", "'omission-targeted'"):
            assert family in accepted
        for removed in ("delay", "corrupt"):
            assert removed not in accepted

    def test_bad_param_exit_code_names_accepted_params(self, capsys):
        assert main(["batch", "--algorithms", "balls-into-leaves",
                     "--sizes", "8", "--adversary", "omission:zap=1",
                     "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "bad parameters for adversary 'omission'" in err
        assert "accepted: p, max_omissions, first, last" in err

    def test_bad_value_exit_code_keeps_param_vocabulary(self, capsys):
        assert main(["batch", "--algorithms", "balls-into-leaves",
                     "--sizes", "8", "--adversary", "omission:p=2.0",
                     "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "must be in [0, 1]" in err
        assert "accepted: p, max_omissions, first, last" in err
        # A negative crash cap is refused, not read as "no crashes".
        for spec in ("random:rate=0.5,", "sandwich:", "targeted:", "half-split:"):
            name = spec.split(":")[0]
            assert main(["batch", "--algorithms", "balls-into-leaves",
                         "--sizes", "8", "--adversary", f"{spec}max_crashes=-1",
                         "--trials", "1"]) == 2
            err = capsys.readouterr().err
            assert f"bad parameters for adversary '{name}'" in err
            assert "max_crashes must be >= 0, got -1" in err
            assert "max_crashes" in err.split("accepted:", 1)[1]
            assert main(["batch", "--algorithms", "balls-into-leaves",
                         "--sizes", "8", "--adversary", f"{spec}max_crashes=0",
                         "--trials", "1"]) == 0
            capsys.readouterr()
        # Counts must be integers: a fractional one used to die slicing
        # with it, and the others ran as some other adversary.
        for spec in ("omission:max_omissions=2.5", "omission-targeted:count=1.5",
                     "half-split:last_round=-5", "sandwich:every_k_rounds=2.5",
                     "targeted:every_k_phases=1.5",
                     "random:rate=0.5,max_crashes=1.5",
                     "random:max_crashes=True"):
            name, _, params = spec.partition(":")
            key, value = params.split(",")[-1].split("=")
            assert main(["batch", "--sizes", "16", "--trials", "4",
                         "--adversary", spec]) == 2, spec
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: bad parameters for adversary '{name}': {key} must be "
            ), err
            assert (f"got {value} (accepted: " in err), err
            assert key in err.split("accepted:", 1)[1]
        # Rates must be numbers: a boolean ran as 0 or 1, and a string
        # (``nan`` is not a literal, so it stays one) died comparing.
        for spec, shown in (("random:rate=True", "True"),
                            ("omission:p=True", "True"),
                            ("random:rate=nan", "'nan'"),
                            ("random:rate='x'", "'x'")):
            name, _, param = spec.partition(":")
            key = param.split("=")[0]
            assert main(["batch", "--sizes", "16", "--trials", "2",
                         "--capture-errors", "--no-check",
                         "--adversary", spec]) == 2, spec
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: bad parameters for adversary '{name}': {key} must be "
                f"a number, got {shown} (accepted: "
            ), err
            assert key in err.split("accepted:", 1)[1]

    def test_captured_failures_report_the_workloads_round_budget(
        self, tmp_path, capsys
    ):
        out = tmp_path / "rows.jsonl"
        assert main(["batch", "--algorithms",
                     "balls-into-leaves,flood,parallel-retry", "--sizes", "8",
                     "--adversary", "omission:p=0.3", "--capture-errors",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        failed = [row for row in rows if row["error"]]
        assert {"balls-into-leaves", "parallel-retry"} <= {
            row["algorithm"] for row in failed
        }
        # n = 8, t = 7: 4n + 2t + 16, t + 8 and n + 8.
        budgets = {"balls-into-leaves": 62, "flood": 15, "parallel-retry": 16}
        for row in failed:
            if row["error"].startswith("RoundLimitExceeded"):
                assert f"round limit of {row['rounds']} " in row["error"]
            else:
                assert row["rounds"] == budgets[row["algorithm"]]

    def test_captured_failures_name_the_engine_that_ran(self, tmp_path, capsys):
        # The baselines run on the reference engine, failed trials too:
        # a captured failure used to report the requested "auto".
        out = tmp_path / "rows.jsonl"
        assert main(["batch", "--algorithms", "flood,parallel-retry",
                     "--sizes", "8", "--adversary", "omission:p=0.3",
                     "--trials", "8", "--seed", "1", "--capture-errors",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(row["error"] for row in rows)
        assert any(not row["error"] for row in rows)
        assert {row["kernel"] for row in rows} == {"reference"}

    def test_omission_smoke_measures_instead_of_raising(self, capsys):
        assert main(["batch", "--algorithms", "balls-into-leaves",
                     "--sizes", "16", "--adversary", "omission:p=0.2",
                     "--trials", "5", "--no-check", "--capture-errors"]) == 0
        out = capsys.readouterr().out
        assert "omission:p=0.2" in out
        assert "fault-measurement mode" in out

    def test_checked_omission_cell_surfaces_the_violation(self, capsys):
        # Without --no-check the first duplicate name aborts the batch:
        # the spec checker still guards fault cells by default.
        assert main(["batch", "--algorithms", "balls-into-leaves",
                     "--sizes", "8", "--adversary", "omission:p=0.2",
                     "--trials", "2"]) == 2
        assert "uniqueness" in capsys.readouterr().err

    def test_hunt_fault_family_choice_is_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hunt", "--fault-family", "byzantine", "--budget", "4"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_hunt_omission_family_smoke(self, capsys, tmp_path, monkeypatch):
        # The winner's scenario and trace files land in the working
        # directory: keep them out of the checkout.
        monkeypatch.chdir(tmp_path)
        assert main(["hunt", "--objective", "rounds", "--strategy", "random",
                     "--fault-family", "omission", "--n", "8",
                     "--budget", "6", "--baseline-trials", "1",
                     "--no-shrink"]) == 0
        out = capsys.readouterr().out
        assert "worst cases on balls-into-leaves n=8" in out
        assert "omission" in out
        # the printed command must reproduce the *omission* hunt, not
        # fall back to the default crash family
        assert "--fault-family omission" in out


class TestPoolLifetime:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tail", "--n", "64", "--trials", "32", "--k-min", "2",
             "--k-max", "3", "--growth", "2", "--chunk", "8"],
            ["hunt", "--n", "8", "--budget", "8", "--baseline-trials", "1",
             "--no-shrink", "--no-scenario"],
        ],
        ids=["tail", "hunt"],
    )
    def test_process_commands_close_their_pool(self, argv, tmp_path):
        # Under -X dev, a pool still running when it is collected prints
        # "ResourceWarning: unclosed running multiprocessing pool".
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC), env.get("PYTHONPATH")) if part
        )
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "repro", *argv,
             "--executor", "process", "--workers", "2"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr
