"""Tests for the search strategies, most importantly determinism: a hunt
is a function of (config, strategy) only — not of the executor."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.search.strategies import (
    STRATEGIES,
    Evaluator,
    HuntConfig,
    mutate,
    random_schedule,
    run_hunt,
)
from repro.sim.batch import Executor
from repro.sim.rng import derive_rng

TINY = dict(algorithm="balls-into-leaves", n=8, objective="rounds")


class TestHuntConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HuntConfig(algorithm="nope")
        with pytest.raises(ConfigurationError):
            HuntConfig(n=1)
        with pytest.raises(ConfigurationError):
            HuntConfig(budget=0)
        with pytest.raises(ConfigurationError):
            HuntConfig(objective="nope")
        with pytest.raises(ConfigurationError):
            HuntConfig(budget=1, seeds_per_schedule=2)  # fits no candidate
        with pytest.raises(ConfigurationError, match="max_crashes must be >= 1"):
            HuntConfig(max_crashes=0)
        with pytest.raises(ConfigurationError, match="max_crashes must be >= 1"):
            HuntConfig(max_crashes=-1)
        with pytest.raises(ConfigurationError, match="max_round must be >= 1"):
            HuntConfig(max_round=0)
        # A zero crash budget clamps every crash event away.
        for family in ("crash", "mixed"):
            with pytest.raises(ConfigurationError, match="crash_budget must be >= 1"):
                HuntConfig(crash_budget=0, fault_family=family)
        HuntConfig(crash_budget=0, fault_family="omission")

    def test_genotype_bounds_default_from_the_model(self):
        config = HuntConfig(n=16)
        assert config.effective_crash_budget == 15
        assert config.effective_max_crashes == 15
        assert config.effective_max_round == 2 * 4 + 6
        capped = HuntConfig(n=16, crash_budget=3)
        assert capped.effective_max_crashes == 3

    def test_omit_events_spend_no_crash_budget(self):
        config = HuntConfig(n=16, crash_budget=0, fault_family="omission")
        assert config.effective_max_crashes == 15
        rng = derive_rng(0, "omission-genotypes")
        sizes = [len(random_schedule(rng, config).events) for _ in range(8)]
        assert max(sizes) > 1


class TestEvaluator:
    def test_budget_truncates_deterministically(self):
        config = HuntConfig(budget=5, **TINY)
        evaluator = Evaluator(config)
        rng = derive_rng(0, "test")
        schedules = [random_schedule(rng, config) for _ in range(8)]
        evaluations = evaluator.evaluate(schedules)
        assert len(evaluations) == 5
        assert evaluator.exhausted
        assert evaluator.evaluate(schedules) == []

    def test_seeds_per_schedule_scores_the_max(self):
        config = HuntConfig(budget=6, seeds_per_schedule=3, **TINY)
        evaluator = Evaluator(config)
        rng = derive_rng(1, "test")
        evaluations = evaluator.evaluate(
            [random_schedule(rng, config) for _ in range(4)]
        )
        assert len(evaluations) == 2  # 6 trials / 3 seeds each
        for evaluation in evaluations:
            assert len(evaluation.results) == 3
            assert evaluation.score == max(evaluation.scores)
            assert evaluation.best_result in evaluation.results


class TestGenotypeSampling:
    def test_samples_respect_bounds(self):
        config = HuntConfig(n=8, max_crashes=3, max_round=5)
        rng = derive_rng(2, "test")
        for _ in range(50):
            schedule = random_schedule(rng, config)
            assert 1 <= schedule.crashes <= 3
            assert all(1 <= e.round_no <= 5 for e in schedule.events)
            mutated = mutate(rng, schedule, config)
            assert mutated.crashes <= 3
            assert mutated.events  # never collapses to the empty schedule
            assert all(1 <= e.round_no <= 5 for e in mutated.events)

    def test_mutation_respects_a_cap_of_one(self):
        """The remove-op fallback resamples in place instead of growing
        past the cap."""
        config = HuntConfig(n=8, max_crashes=1)
        rng = derive_rng(3, "test")
        schedule = random_schedule(rng, config)
        for _ in range(60):
            schedule = mutate(rng, schedule, config)
            assert schedule.crashes == 1


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
class TestStrategies:
    def test_spends_exactly_the_budget(self, strategy):
        config = HuntConfig(budget=17, seed=4, **TINY)
        result = run_hunt(config, strategy)
        assert len(result.evaluations) == 17
        assert [e.index for e in result.evaluations] == list(range(17))

    def test_serial_and_process_histories_byte_identical(self, strategy):
        """The determinism satellite: same seed + budget => identical
        jsonl rows on the serial and multiprocessing executors."""
        config = HuntConfig(budget=12, seed=7, **TINY)
        serial = run_hunt(config, strategy)
        with Executor("process", 2) as executor:
            process = run_hunt(config, strategy, executor=executor)
        assert json.dumps(serial.rows()) == json.dumps(process.rows())

    def test_best_and_top_are_consistent(self, strategy):
        config = HuntConfig(budget=10, seed=9, **TINY)
        result = run_hunt(config, strategy)
        top = result.top(3)
        assert top[0].score == result.best.score
        digests = [e.schedule.digest for e in top]
        assert len(digests) == len(set(digests))  # distinct schedules


class TestDeterminismProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        strategy=st.sampled_from(sorted(STRATEGIES)),
        budget=st.integers(min_value=2, max_value=10),
    )
    def test_rerun_is_byte_identical(self, seed, strategy, budget):
        config = HuntConfig(budget=budget, seed=seed, **TINY)
        first = run_hunt(config, strategy)
        second = run_hunt(config, strategy)
        assert json.dumps(first.rows()) == json.dumps(second.rows())
