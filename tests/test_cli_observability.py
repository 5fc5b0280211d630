"""CLI tests for the observability surface: scenario emission from
``hunt``, the ``explore`` timeline renderer, ``stats``, and the
``--trace`` / ``--telemetry`` knobs."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.instrumentation import TIMERS


@pytest.fixture(autouse=True)
def _sandbox(tmp_path, monkeypatch):
    """Every verb here writes files; keep them in a scratch CWD, and
    never leak the module-level telemetry collector on."""
    monkeypatch.chdir(tmp_path)
    yield
    TIMERS.disable()
    TIMERS.reset()


def _hunt(*extra):
    return main(
        ["hunt", "--n", "8", "--budget", "6", "--seed", "2",
         "--baseline-trials", "1", "--no-shrink", *extra]
    )


def _emitted_scenario():
    names = [n for n in os.listdir(".") if n.startswith("hunt-scenario-")]
    assert len(names) == 1
    return names[0]


class TestHuntScenarioEmission:
    def test_hunt_writes_scenario_and_trace_files(self, capsys):
        assert _hunt() == 0
        out = capsys.readouterr().out
        scenario_name = _emitted_scenario()
        assert f"scenario file: {scenario_name}" in out
        assert f"python -m repro explore {scenario_name}" in out
        with open(scenario_name, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["format"] == "repro-scenario/1"
        assert document["spec"]["digest"] in scenario_name
        assert document["schedule"]["events"]
        assert os.path.exists(document["trace"]["path"])

    def test_no_scenario_suppresses_the_files(self, capsys):
        assert _hunt("--no-scenario") == 0
        out = capsys.readouterr().out
        assert "scenario file:" not in out
        assert not [n for n in os.listdir(".") if n.endswith(".json")]

    def test_scenario_out_picks_the_path(self, tmp_path, capsys):
        target = tmp_path / "sub" / "winner.json"
        target.parent.mkdir()
        assert _hunt("--scenario-out", str(target)) == 0
        assert "winner.json" in capsys.readouterr().out
        document = json.loads(target.read_text(encoding="utf-8"))
        # The trace lands alongside the scenario, not in the CWD.
        assert (target.parent / document["trace"]["path"]).exists()
        assert document["spec"]["monitor"] == "off"
        # The winner replays under the hunt's own --monitor.
        monitored = tmp_path / "sub" / "monitored.json"
        assert _hunt("--monitor", "cheap", "--scenario-out", str(monitored)) == 0
        document = json.loads(monitored.read_text(encoding="utf-8"))
        assert document["spec"]["monitor"] == "cheap"

    def test_omission_family_scenario_round_trips(self, capsys):
        assert main(
            ["hunt", "--fault-family", "omission", "--n", "8", "--budget",
             "8", "--seed", "7", "--baseline-trials", "1", "--no-shrink"]
        ) == 0
        capsys.readouterr()
        scenario_name = _emitted_scenario()
        assert main(["explore", scenario_name, "--out", "t.html"]) == 0
        assert os.path.exists("t.html")


class TestExplore:
    def test_explore_renders_html_from_stored_trace(self, capsys):
        assert _hunt() == 0
        capsys.readouterr()
        scenario_name = _emitted_scenario()
        assert main(["explore", scenario_name]) == 0
        out = capsys.readouterr().out
        assert "timeline written to" in out
        assert "stored trace" in out
        html_name = [n for n in os.listdir(".") if n.endswith(".html")][0]
        with open(html_name, encoding="utf-8") as handle:
            html = handle.read()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html

    def test_hand_edited_scenario_replays_bit_identically(self, capsys):
        assert _hunt() == 0
        capsys.readouterr()
        scenario_name = _emitted_scenario()
        with open(scenario_name, encoding="utf-8") as handle:
            document = json.load(handle)
        # Perturb: push the first event one round later, by hand.
        event = document["schedule"]["events"][0]
        event[0] = event[0] + 1
        with open(scenario_name, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert main(
            ["explore", scenario_name, "--replay", "--out", "edited.html"]
        ) == 0
        captured = capsys.readouterr()
        assert (
            "bit-identical on the reference and columnar kernels"
            in captured.err
        )
        assert "replayed on the" in captured.out
        assert os.path.exists("edited.html")

    def test_edited_replay_is_deterministic(self, capsys):
        assert _hunt() == 0
        capsys.readouterr()
        scenario_name = _emitted_scenario()
        for out in ("a.html", "b.html"):
            assert main(
                ["explore", scenario_name, "--replay", "--out", out]
            ) == 0
        capsys.readouterr()
        with open("a.html", encoding="utf-8") as handle:
            first = handle.read()
        with open("b.html", encoding="utf-8") as handle:
            second = handle.read()
        assert first == second

    def test_missing_scenario_fails_cleanly(self, capsys):
        assert main(["explore", "nope.json"]) == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            '{"r":3,"kind":"cra',
            '[3, "crash"]',
            '{"r":"x","kind":"crash","pid":1}',
            '{"kind":"crash","pid":1}',
            '{"r":3,"pid":1}',
            '{"r":3,"kind":7}',
        ],
        ids=["truncated", "not-an-object", "string-round", "no-round",
             "no-kind", "int-kind"],
    )
    def test_malformed_stored_trace_fails_cleanly(self, capsys, line):
        assert _hunt() == 0
        capsys.readouterr()
        scenario_name = _emitted_scenario()
        with open(scenario_name, encoding="utf-8") as handle:
            trace_name = json.load(handle)["trace"]["path"]
        with open(trace_name, encoding="utf-8") as handle:
            lineno = len(handle.readlines()) + 1
        with open(trace_name, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        assert main(["explore", scenario_name, "--out", "t.html"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{trace_name}:{lineno}: " in err
        assert "Traceback" not in err
        assert not os.path.exists("t.html")


class TestStatsAndTelemetry:
    def test_batch_telemetry_row_feeds_stats(self, capsys):
        assert main(
            ["batch", "--sizes", "8", "--trials", "2", "--seed", "1",
             "--telemetry", "--out", "batch.jsonl"]
        ) == 0
        err = capsys.readouterr().err
        assert "telemetry stages" in err
        rows = [
            json.loads(line)
            for line in open("batch.jsonl", encoding="utf-8")
        ]
        assert rows[-1]["kind"] == "telemetry"
        assert rows[-1]["stages"]
        assert main(["stats", "batch.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "telemetry stages" in out
        assert "total run elapsed" in out

    def test_stats_merges_files_and_writes_out(self, capsys):
        assert main(
            ["batch", "--sizes", "8", "--trials", "2", "--seed", "1",
             "--out", "plain.jsonl"]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "plain.jsonl", "--out", "report.txt"]) == 0
        capsys.readouterr()
        with open("report.txt", encoding="utf-8") as handle:
            report = handle.read()
        assert "plain.jsonl" in report
        assert "trial rows" in report

    def test_stats_missing_file_fails_cleanly(self, capsys):
        assert main(["stats", "nope.jsonl"]) == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_batch_has_no_trace_flag(self, capsys):
        # Batch rows carry no events, so the flag was removed.
        with pytest.raises(SystemExit) as exit_:
            main(["batch", "--sizes", "8", "--trials", "2", "--trace", "cheap"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --trace cheap" in capsys.readouterr().err

    def test_hunt_telemetry_smoke(self, capsys):
        assert _hunt("--telemetry", "--no-scenario") == 0
        assert "telemetry stages" in capsys.readouterr().err


#: Replacement values for the fuzz's JSON edits.  Integers stay small:
#: the fuzz checks that bad input fails cleanly, not how long a huge
#: (but well-formed) run or timeline takes.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(
        st.sampled_from(["pid", "r", "kind", "n"]), st.integers(0, 3), max_size=2
    ),
)


def _json_paths(node, prefix=()):
    """Every position in a JSON document, as key/index paths."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _json_paths(child, prefix + (index,))


def _mutate(data, text, jsonl):
    """One hand edit of a valid file: raw bytes, or one JSON value
    replaced or dropped (in one line of a jsonl file)."""
    if data.draw(st.booleans(), label="edit bytes"):
        raw = text.encode("utf-8")
        at = data.draw(st.integers(0, len(raw)), label="at")
        cut = data.draw(st.integers(0, 4), label="cut")
        patch = data.draw(st.binary(max_size=4), label="patch")
        return raw[:at] + patch + raw[at + cut :]
    lines = text.splitlines() if jsonl else [text]
    line = data.draw(st.integers(0, len(lines) - 1), label="line")
    document = json.loads(lines[line])
    path = data.draw(st.sampled_from(list(_json_paths(document))), label="path")
    value = data.draw(_JSON_VALUES, label="value")
    if not path:
        document = value
    else:
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans(), label="drop"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    lines[line] = json.dumps(document)
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.fixture(scope="class")
def inputs(tmp_path_factory):
    """Valid hand-editable inputs, made once: a mixed-family hunt's
    scenario file and trace, and batch rows ending in a telemetry record.
    Returns the trace file name and every file's text by name."""
    home = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("inputs"))
    try:
        assert _hunt("--fault-family", "mixed", "--scenario-out", "s.json") == 0
        assert main(
            ["batch", "--sizes", "8", "--trials", "2", "--seed", "1",
             "--adversary", "omission:p=0.2", "--no-check",
             "--capture-errors", "--telemetry", "--out", "rows.jsonl"]
        ) == 0
        trace = json.loads(Path("s.json").read_text("utf-8"))["trace"]["path"]
        names = ("s.json", trace, "rows.jsonl")
        return trace, {name: Path(name).read_text("utf-8") for name in names}
    finally:
        TIMERS.disable()
        TIMERS.reset()
        os.chdir(home)


class TestHandEditedInputs:
    """A hand-edited scenario, trace or rows file makes ``explore`` and
    ``stats`` exit 0 or 2 with an ``error:`` line, never a traceback."""

    def test_fuzzed_inputs_exit_0_or_2(self, inputs, capsys):
        _, files = inputs

        @settings(max_examples=100, derandomize=True, database=None,
                  deadline=None)
        @given(st.data())
        def edit_and_read(data):
            target = data.draw(st.sampled_from(sorted(files)), label="file")
            for name, text in files.items():
                raw = text.encode("utf-8")
                if name == target:
                    raw = _mutate(data, text, name.endswith(".jsonl"))
                Path(name).write_bytes(raw)
            argv = ["explore", "s.json", "--out", "t.html"]
            if target == "rows.jsonl":
                argv = ["stats", target]
            assert main(argv) in (0, 2)
            assert "Traceback" not in capsys.readouterr().err

        edit_and_read()

    def _fails_naming(self, files, argv, path, capsys, edit):
        for name, text in files.items():
            Path(name).write_text(text, "utf-8")
        edit()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: ") and path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["scenario", "trace", "rows"])
    def test_non_utf8_bytes_exit_2(self, inputs, capsys, target):
        trace, files = inputs
        name = {"scenario": "s.json", "trace": trace, "rows": "rows.jsonl"}[target]
        argv = ["explore", "s.json", "--out", "t.html"]
        if target == "rows":
            argv = ["stats", name]
        bad = files[name].encode("utf-8") + b"\xff\xfe\n"
        self._fails_naming(
            files, argv, name, capsys, lambda: Path(name).write_bytes(bad)
        )

    def test_trace_path_naming_a_directory_exits_2(self, inputs, capsys):
        trace, files = inputs

        def edit():
            os.remove(trace)
            os.mkdir(trace)

        self._fails_naming(files, ["explore", "s.json"], trace, capsys, edit)

    def test_crash_event_without_pid_exits_2(self, inputs, capsys):
        trace, files = inputs
        lineno = len(files[trace].splitlines()) + 1
        bad = files[trace] + '{"r":1,"kind":"crash"}\n'
        self._fails_naming(
            files, ["explore", "s.json"], f"{trace}:{lineno}: 'crash'",
            capsys, lambda: Path(trace).write_text(bad, "utf-8"),
        )
