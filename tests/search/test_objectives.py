"""Tests for the search objectives (scores, not raises)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.search.objectives import (
    ERROR_SCORE,
    OBJECTIVES,
    as_objective,
    objective_summaries,
)
from repro.sim.batch import TrialResult
from repro.sim.specs import TrialSpec


def result_with(
    n=8,
    rounds=7,
    failures=0,
    messages=50,
    names=None,
    error=None,
    last_round_named=7,
):
    """A hand-built trial outcome (names default to a clean renaming)."""
    if names is None:
        names = tuple((1000 + i, i) for i in range(n - failures))
    return TrialResult(
        spec=TrialSpec(algorithm="balls-into-leaves", n=n, seed=0),
        rounds=rounds,
        failures=failures,
        messages_sent=messages,
        messages_delivered=messages * 2,
        last_round_named=last_round_named,
        names=names,
        error=error,
    )


class TestRegistry:
    def test_expected_objectives_exist(self):
        assert set(OBJECTIVES) == {
            "rounds",
            "messages",
            "namespace",
            "invariant",
            "liveness",
            "tail",
            "disruption",
        }

    def test_as_objective_coerces_and_validates(self):
        assert as_objective("rounds") is OBJECTIVES["rounds"]
        assert as_objective(OBJECTIVES["rounds"]) is OBJECTIVES["rounds"]
        with pytest.raises(ConfigurationError):
            as_objective("nope")

    def test_summaries_cover_every_objective(self):
        summaries = objective_summaries()
        assert len(summaries) == len(OBJECTIVES)
        assert all(" — " in line for line in summaries)


class TestScores:
    def test_rounds_is_the_round_count(self):
        assert OBJECTIVES["rounds"].score(result_with(rounds=11)) == 11.0

    def test_messages_is_the_send_count(self):
        assert OBJECTIVES["messages"].score(result_with(messages=321)) == 321.0

    def test_namespace_scores_width_and_range_breaks(self):
        clean = result_with(names=((1, 0), (2, 3)))
        assert OBJECTIVES["namespace"].score(clean) == 4.0
        broken = result_with(names=((1, 0), (2, 9)))  # 9 outside 0..7
        assert OBJECTIVES["namespace"].score(broken) > 10_000

    def test_invariant_partial_scores_are_monotonic(self):
        objective = OBJECTIVES["invariant"]
        clean = objective.score(result_with())
        missing = objective.score(result_with(names=tuple((1000 + i, i) for i in range(6))))
        duplicate = objective.score(result_with(names=((1, 0), (2, 0))))
        assert clean < 1.0  # only the round gradient
        assert clean < missing < duplicate

    def test_invariant_ignores_crashed_processes(self):
        # 3 crashed, 5 survivors all named: no termination violation.
        ok = result_with(failures=3, names=tuple((1000 + i, i) for i in range(5)))
        assert OBJECTIVES["invariant"].score(ok) < 1.0

    def test_liveness_rewards_late_naming_and_dominated_by_deadlock(self):
        objective = OBJECTIVES["liveness"]
        early = objective.score(result_with(last_round_named=3))
        late = objective.score(result_with(last_round_named=9, rounds=9))
        assert early < late
        deadlocked = objective.score(
            result_with(error="RoundLimitExceeded: ...", rounds=80, names=())
        )
        assert deadlocked >= ERROR_SCORE

    def test_error_dominates_every_violation_sensitive_objective(self):
        failed = result_with(error="SimulationError: boom", names=(), messages=0)
        for name in ("messages", "namespace", "invariant", "liveness"):
            assert OBJECTIVES[name].score(failed) >= ERROR_SCORE
