"""Tests for the crash-schedule genotype."""

from __future__ import annotations

import pickle

import pytest

from repro.adversary.certification import is_certified
from repro.adversary.scheduled import ScheduledAdversary
from repro.errors import ConfigurationError
from repro.ids import sparse_ids
from repro.search.schedule import CrashEvent, Schedule
from repro.sim.batch import run_trial
from repro.sim.kernel import KernelRequest, select_kernel
from repro.sim.runner import run_renaming
from repro.sim.specs import AdversarySpec, TrialSpec


class TestGenotype:
    def test_canonical_orders_and_dedups_victims(self):
        schedule = Schedule.of(
            8,
            [
                CrashEvent(5, 3, (1, 1, 3, 9, 2)),  # self/dup/range receivers
                CrashEvent(2, 3, ()),  # same victim, earlier round wins
                CrashEvent(1, 0, (4,)),
            ],
        )
        assert [e.to_tuple() for e in schedule.events] == [
            (1, 0, (4,)),
            (2, 3, ()),
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Schedule.of(0, [])
        with pytest.raises(ConfigurationError):
            Schedule.of(4, [CrashEvent(0, 1)])
        with pytest.raises(ConfigurationError):
            Schedule.of(4, [CrashEvent(1, 4)])

    def test_json_roundtrip(self):
        schedule = Schedule.of(8, [CrashEvent(2, 1, (0, 3)), CrashEvent(4, 5)])
        assert Schedule.from_json(schedule.to_json()) == schedule

    def test_params_roundtrip_through_adversary_spec(self):
        schedule = Schedule.of(8, [CrashEvent(2, 1, (0, 3))])
        spec = schedule.spec()
        assert isinstance(spec, AdversarySpec)
        rebuilt = Schedule.from_params(**dict(spec.params))
        assert rebuilt == schedule

    def test_digest_is_content_addressed(self):
        a = Schedule.of(8, [CrashEvent(2, 1, (0,))])
        b = Schedule.of(8, [CrashEvent(2, 1, (0,))])
        c = Schedule.of(8, [CrashEvent(2, 1, (3,))])
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_mutation_helpers_preserve_canonical_form(self):
        schedule = Schedule.of(8, [CrashEvent(3, 2, (1,))])
        grown = schedule.with_event(CrashEvent(1, 5))
        assert grown.crashes == 2
        assert grown.events[0].round_no == 1  # re-sorted
        assert grown.without_event(0) == schedule
        swapped = schedule.replace_event(0, CrashEvent(2, 2, ()))
        assert swapped.events[0].to_tuple() == (2, 2, ())


class TestCompilation:
    def test_compiles_to_certified_scheduled_adversary(self):
        """The satellite contract: one predicate decides columnar
        eligibility for bundled strategies and compiled schedules alike."""
        schedule = Schedule.of(8, [CrashEvent(2, 0, (1,))])
        adversary = schedule.compile(sparse_ids(8))
        assert isinstance(adversary, ScheduledAdversary)
        assert is_certified(adversary)

    def test_kernel_selection_puts_compiled_schedules_on_columnar(self):
        ids = sparse_ids(8)
        schedule = Schedule.of(8, [CrashEvent(2, 0, (1,))])
        request = KernelRequest(
            algorithm="balls-into-leaves",
            ids=tuple(ids),
            seed=3,
            policy="random",
            adversary=schedule.compile(ids),
            crash_budget=7,
        )
        assert select_kernel("auto", request).name == "columnar"

    def test_compile_requires_matching_population(self):
        with pytest.raises(ConfigurationError):
            Schedule.of(8, []).compile(sparse_ids(9))

    def test_indices_bind_positionally(self):
        ids = sparse_ids(4)
        adversary = Schedule.of(4, [CrashEvent(2, 1, (0, 3))]).compile(ids)
        plan = adversary._by_round[2][0]
        assert plan.victim == ids[1]
        assert list(plan.receivers) == [ids[0], ids[3]]

    def test_out_of_schedule_events_are_clamped_harmlessly(self):
        """Events naming late rounds or already-crashed victims rely on
        the simulator's own clamping — every genotype is viable."""
        ids = sparse_ids(8)
        schedule = Schedule.of(
            8, [CrashEvent(1, 2, ()), CrashEvent(500, 3, (0,))]
        )
        run = run_renaming(
            "balls-into-leaves", ids, seed=5, adversary=schedule.compile(ids)
        )
        names = list(run.names.values())
        assert len(set(names)) == len(names)

    def test_trial_spec_roundtrip_is_picklable(self):
        schedule = Schedule.of(8, [CrashEvent(2, 1, (0,))])
        spec = TrialSpec(
            algorithm="balls-into-leaves",
            n=8,
            seed=9,
            adversary=schedule.spec(),
            capture_errors=True,
        )
        restored = pickle.loads(pickle.dumps(spec))
        result = run_trial(restored)
        assert result.error is None
        assert result.rounds >= 3
