"""Scenario files: round-trip, hand-edit semantics, and persistence."""

from __future__ import annotations

import copy
import json
import re

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.search.scenario import (
    SCENARIO_FORMAT,
    Scenario,
    load_scenario,
    scenario_filename,
    write_scenario,
)
from repro.search.schedule import CrashEvent, Schedule
from repro.sim.batch import run_trial
from repro.sim.specs import AdversarySpec, TrialSpec
from repro.sim.trace import trace_filename, write_trace


def _schedule():
    return Schedule.of(
        9, [CrashEvent(1, 0, (2,)), CrashEvent(2, 3, (), "omit")]
    )


def _spec(schedule=None, **overrides):
    adversary = (schedule or _schedule()).spec()
    fields = dict(
        algorithm="balls-into-leaves",
        n=9,
        seed=4,
        adversary=adversary,
        halt_on_name=True,
        crash_budget=3,
        check=False,
        capture_errors=True,
        trace="cheap",
    )
    fields.update(overrides)
    return TrialSpec(**fields)


#: Hand edits the loader must reject, each as {document path: new
#: value}, with the field its error names.  The base document is
#: ``_document()``: n=9, events [[1, 0, [2]], [2, 3, [], "omit"]].
BAD_EDITS = [
    pytest.param(
        {("schedule", "events", 0, 0): "1"}, "schedule.events[0] round",
        id="event-round-string",
    ),
    pytest.param(
        {("schedule", "events", 0): 1}, "schedule.events[0]",
        id="event-not-a-list",
    ),
    pytest.param(
        {("schedule", "events"): "1,0,[2]"}, "schedule.events",
        id="events-not-a-list",
    ),
    pytest.param(
        {("schedule",): [[1, 0, [2]]]}, "schedule", id="schedule-not-an-object"
    ),
    pytest.param(
        {("schedule", "events", 0, 2): 2}, "schedule.events[0] receivers",
        id="receivers-not-a-list",
    ),
    pytest.param({("spec", "n"): "9"}, "spec.n", id="n-string"),
    pytest.param({("spec", "n"): -3}, "spec.n", id="n-negative"),
    pytest.param({("spec", "seed"): "4"}, "spec.seed", id="seed-string"),
    pytest.param(
        {("spec", "crash_budget"): "3"}, "spec.crash_budget",
        id="crash-budget-string",
    ),
    pytest.param(
        {("spec", "adversary"): "schedule"}, "spec.adversary",
        id="adversary-not-an-object",
    ),
    pytest.param(
        {("trace",): "trace-x.jsonl"}, "trace", id="trace-not-an-object"
    ),
    pytest.param({("meta",): ["rounds", 11]}, "meta", id="meta-not-an-object"),
    pytest.param(
        {("spec", "kernel"): "quantum"}, "spec.kernel", id="kernel-not-a-choice"
    ),
    pytest.param(
        {("spec", "monitor"): "bogus"}, "spec.monitor", id="monitor-not-a-choice"
    ),
    pytest.param(
        {("spec", "trace"): "bogus"}, "spec.trace", id="trace-mode-not-a-choice"
    ),
    pytest.param(
        # Victim 12 exists at n=16 but not in the n=9 run.
        {("schedule", "n"): 16, ("schedule", "events"): [[2, 12, []]]},
        "schedule.n=16 does not match spec.n=9",
        id="schedule-n-mismatch",
    ),
]


def _document():
    return Scenario.from_trial(
        _spec(), schedule=_schedule(), trace_path="trace-x.jsonl", rounds=11
    ).to_dict()


def _edited(document, edits):
    document = copy.deepcopy(document)
    for path, value in edits.items():
        node = document
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return document


class TestRoundTrip:
    def test_dict_round_trip_preserves_spec_and_schedule(self):
        schedule = _schedule()
        scenario = Scenario(
            spec=_spec(schedule), schedule=schedule, meta={"rounds": 11}
        )
        loaded = Scenario.from_dict(scenario.to_dict())
        assert loaded.spec == scenario.spec
        assert loaded.schedule == schedule
        assert loaded.meta == {"rounds": 11}

    def test_json_round_trip_via_file(self, tmp_path):
        schedule = _schedule()
        scenario = Scenario(
            spec=_spec(schedule),
            schedule=schedule,
            trace_path="trace-abc.jsonl",
            trace_digest="abc",
            meta={"objective": "rounds"},
        )
        path = str(tmp_path / scenario_filename(scenario.spec.digest()))
        write_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded == scenario

    def test_non_schedule_adversary_keeps_params(self):
        spec = _spec(
            adversary=AdversarySpec.of("random", rate=0.2, delivery="uniform")
        )
        scenario = Scenario(spec=spec)
        document = scenario.to_dict()
        assert document["schedule"] is None
        assert document["spec"]["adversary"]["params"] == {
            "delivery": "uniform", "rate": 0.2,
        }
        assert Scenario.from_dict(document).spec == spec

    def test_schedule_params_not_duplicated_in_adversary_block(self):
        document = Scenario(spec=_spec(), schedule=_schedule()).to_dict()
        assert "params" not in document["spec"]["adversary"]
        assert document["schedule"]["events"]

    def test_from_trial_records_result_meta(self):
        spec = _spec()
        result = run_trial(spec)
        scenario = Scenario.from_trial(
            spec, result, schedule=_schedule(), trace_path="trace-x.jsonl",
            objective="rounds",
        )
        assert scenario.meta["rounds"] == result.rounds
        assert scenario.meta["failures"] == result.failures
        assert scenario.meta["messages_sent"] == result.messages_sent
        assert scenario.meta["objective"] == "rounds"
        assert scenario.trace_digest == spec.digest()

    def test_trace_digest_only_set_with_a_trace_path(self):
        scenario = Scenario.from_trial(_spec(), schedule=_schedule())
        assert scenario.trace_path is None
        assert scenario.trace_digest is None


class TestHandEdit:
    """The perturb-and-replay contract: the schedule block wins."""

    def test_edited_events_rebuild_the_adversary(self):
        schedule = _schedule()
        document = Scenario(spec=_spec(schedule), schedule=schedule).to_dict()
        # Move the crash a round later, straight in the serialized form.
        document["schedule"]["events"][0] = [5, 0, [2]]
        loaded = Scenario.from_dict(document)
        crash_rounds = [
            e.round_no for e in loaded.schedule.events if e.kind == "crash"
        ]
        assert crash_rounds == [5]
        edited = Schedule.from_dict(document["schedule"])
        assert loaded.spec.adversary == edited.spec()

    def test_auto_digest_label_regenerated_after_edit(self):
        schedule = _schedule()
        document = Scenario(spec=_spec(schedule), schedule=schedule).to_dict()
        stale = document["spec"]["adversary"]["label"]
        assert stale == f"schedule:{schedule.digest}"
        document["schedule"]["events"][0] = [5, 0, [2]]
        loaded = Scenario.from_dict(document)
        assert loaded.spec.adversary.label != stale
        assert loaded.spec.adversary.label == (
            f"schedule:{loaded.schedule.digest}"
        )

    def test_custom_label_survives_an_edit(self):
        schedule = _schedule()
        spec = _spec(schedule, adversary=schedule.spec("my-counterexample"))
        document = Scenario(spec=spec, schedule=schedule).to_dict()
        document["schedule"]["events"][0] = [5, 0, [2]]
        loaded = Scenario.from_dict(document)
        assert loaded.spec.adversary.label == "my-counterexample"

    def test_edited_scenario_replays(self):
        schedule = _schedule()
        document = Scenario(spec=_spec(schedule), schedule=schedule).to_dict()
        document["schedule"]["events"][0] = [3, 0, [2]]
        result = run_trial(Scenario.from_dict(document).spec)
        assert result.rounds > 0


class TestValidation:
    def test_filename_shape(self):
        assert scenario_filename("abc") == "scenario-abc.json"
        assert (
            scenario_filename("abc", prefix="hunt-scenario")
            == "hunt-scenario-abc.json"
        )

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigurationError, match="not a repro-scenario/1"):
            Scenario.from_dict({"format": "something-else"})

    def test_missing_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="no 'spec' block"):
            Scenario.from_dict({"format": SCENARIO_FORMAT})

    def test_bad_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_scenario(str(path))

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="expected a JSON object"):
            load_scenario(str(path))

    def test_to_json_is_editable_pretty_print(self):
        text = Scenario(spec=_spec(), schedule=_schedule()).to_json()
        assert text.startswith("{\n")
        assert json.loads(text)["format"] == SCENARIO_FORMAT

    @pytest.mark.parametrize("edits, field", BAD_EDITS)
    def test_bad_hand_edit_rejected_naming_the_field(self, edits, field):
        with pytest.raises(ConfigurationError, match=re.escape(field)):
            Scenario.from_dict(_edited(_document(), edits))


class TestExploreHandEdits:
    """``repro explore`` turns a bad hand edit into exit 2 and an
    ``error:`` line, with or without ``--replay``."""

    @pytest.fixture
    def scenario(self, tmp_path):
        """A scenario file and its cheap trace, laid out as a hunt
        writes them."""
        spec, schedule = _spec(), _schedule()
        result = run_trial(spec)
        trace_name = trace_filename(spec.digest())
        write_trace(result.trace, str(tmp_path / trace_name), digest=spec.digest())
        path = tmp_path / "scenario.json"
        write_scenario(
            Scenario.from_trial(
                spec, result, schedule=schedule, trace_path=trace_name
            ),
            str(path),
        )
        return path

    def _explore(self, path, edits, capsys, *extra):
        document = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(_edited(document, edits)), encoding="utf-8")
        code = main(
            ["explore", str(path), "--out", str(path.parent / "t.html"), *extra]
        )
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("replay", [[], ["--replay"]], ids=["stored", "replay"])
    @pytest.mark.parametrize("edits, field", BAD_EDITS)
    def test_bad_edit_exits_2(self, scenario, capsys, edits, field, replay):
        code, err = self._explore(scenario, edits, capsys, *replay)
        assert code == 2
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and field in last
        assert "Traceback" not in err

    def test_trace_digest_disagreeing_with_the_trace_exits_2(
        self, scenario, capsys
    ):
        digest = _spec().digest()
        code, err = self._explore(
            scenario, {("trace", "digest"): "000000000000"}, capsys
        )
        assert code == 2
        last = err.splitlines()[-1]
        assert last.startswith("error: ")
        assert "000000000000" in last and digest in last
        assert "Traceback" not in err

    def test_missing_trace_file_replays_with_a_note(self, scenario, capsys):
        """Replay is the documented fallback, so a dangling trace
        pointer still exits 0 — but says why it replayed."""
        trace_name = trace_filename(_spec().digest())
        (scenario.parent / trace_name).unlink()
        code, err = self._explore(scenario, {}, capsys)
        assert code == 0
        assert f"note: {trace_name} not found; replaying instead" in err

    def test_edited_events_replay_with_a_note(self, scenario, capsys):
        """Perturb-and-replay: the spec digest moves while the pointer
        and the trace header still agree."""
        code, err = self._explore(
            scenario, {("schedule", "events", 0, 0): 3}, capsys
        )
        assert code == 0
        assert "replaying instead" in err
