"""Omission-family hunt acceptance: mine, beat the gauntlet, shrink, replay.

The fault-injection PR's headline claim, pinned: a hill-climb hunt over
the omission genotype at n=16 synthesizes a loss schedule strictly worse
(under the rounds objective) than every bundled omission adversary, the
shrunk repro is minimal, and it replays bit-identically on the reference
and columnar engines.  The mined find is the round-1 hello drop: masking
a single hello link leaves the sender permanently unknown to the masked
receiver, wedging the silenced ball past the round limit — a behavior
the capped-and-windowed bundled gauntlet deliberately cannot reach.
"""

from __future__ import annotations

import pytest

from repro.analysis.worst_case import beats_every_bundled
from repro.search.baseline import (
    BUNDLED_GAUNTLET,
    OMISSION_GAUNTLET,
    evaluate_bundled,
    gauntlet_for,
    hunt_entry,
)
from repro.search.schedule import CrashEvent, Schedule
from repro.search.shrink import replay_identical, shrink, to_pytest
from repro.search.strategies import HuntConfig, run_hunt

CONFIG = HuntConfig(
    n=16, objective="rounds", budget=120, seed=7, fault_family="omission"
)


class TestGauntletSelection:
    def test_family_maps_to_lineup(self):
        assert gauntlet_for(HuntConfig()) == BUNDLED_GAUNTLET
        assert gauntlet_for(CONFIG) == OMISSION_GAUNTLET
        mixed = gauntlet_for(HuntConfig(fault_family="mixed"))
        assert mixed == BUNDLED_GAUNTLET + OMISSION_GAUNTLET[1:]

    def test_omission_gauntlet_terminates_on_the_acceptance_cell(self):
        # Loss in the gauntlet is capped and windowed precisely so the
        # bundled runs stay finite; a wedged entry here would turn the
        # acceptance comparison into a round-limit tie.
        entries = evaluate_bundled(CONFIG, trials=5)
        assert all(not entry.error for entry in entries)


class TestOmissionAcceptanceHunt:
    """`repro hunt --objective rounds --strategy hillclimb
    --fault-family omission --seed 7 --budget 120`, as a pinned
    assertion."""

    def test_hillclimb_beats_every_bundled_omission_adversary(self):
        result = run_hunt(CONFIG, "hillclimb")
        best = result.best
        assert all(event.kind == "omit" for event in best.schedule.events)

        entries = evaluate_bundled(CONFIG, trials=5)
        bundled_worst = max(entry.score for entry in entries)
        assert best.score > bundled_worst
        assert beats_every_bundled([hunt_entry(best)] + entries)

        seed = best.best_result.spec.seed
        shrunk = shrink(best.schedule, CONFIG, seed)
        assert shrunk.score >= best.score
        assert shrunk.score > bundled_worst
        assert len(shrunk.schedule.events) == 1
        (event,) = shrunk.schedule.events
        assert event.kind == "omit"
        assert event.round_no == 1  # the hello-round drop is the find

        reference, columnar = replay_identical(shrunk.schedule, CONFIG, seed)
        assert reference.rounds == columnar.rounds
        assert reference.rounds > bundled_worst

        rendered = to_pytest(shrunk.schedule, CONFIG, seed, reference)
        assert "adversary=ScheduledAdversary(schedule, omissions)" in rendered
        assert "ScheduledOmission" in rendered


class TestOmitScheduleRegression:
    """The shrunk find, pinned structurally: an *asymmetric* hello drop
    (ball 1's hello reaches only one peer; everyone else never learns it
    exists) wedges the execution past the round limit on both engines.
    Symmetric drops recover — if nobody hears the hello, the silenced
    ball resolves contention inside its own complete view — so the
    losing pattern is precisely a partitioned membership picture."""

    def test_asymmetric_hello_drop_livelocks(self):
        schedule = Schedule.of(
            16, [CrashEvent(1, 1, frozenset({5}), kind="omit")]
        )
        reference, columnar = replay_identical(schedule, CONFIG, 7)
        assert reference.error and "RoundLimitExceeded" in reference.error
        assert columnar.error == reference.error

    def test_fully_silenced_hello_recovers(self):
        schedule = Schedule.of(16, [CrashEvent(1, 1, frozenset(), kind="omit")])
        reference, _ = replay_identical(schedule, CONFIG, 7)
        assert reference.error is None
        assert reference.omissions == 15
