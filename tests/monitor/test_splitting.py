"""Determinism and correctness of the importance-splitting estimator.

The estimator's contract: byte-identical results for the same config on
any executor (serial / process pools of any width) and on either fast
engine (columnar / vectorized — exercising the engine-independent
checkpoint interchange), honest level ladders (odd rounds only: balls
halt in position rounds), and statistical agreement with direct Monte
Carlo where both are feasible.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mt19937 import HAVE_NUMPY
from repro.errors import ConfigurationError
from repro.monitor import splitting
from repro.monitor.splitting import (
    TailConfig,
    default_levels,
    loglog_unit,
    run_tail,
)
from repro.sim.batch import Executor
from repro.sim.kernel import MIN_STREAMS


def rows_json(result):
    return json.dumps(result.rows(), sort_keys=True)


class TestLevels:
    @pytest.mark.parametrize(
        "n,unit", [(2, 1), (4, 1), (16, 2), (64, 3), (1024, 4), (4096, 4), (1 << 16, 4)]
    )
    def test_loglog_unit(self, n, unit):
        assert loglog_unit(n) == unit

    def test_default_ladder_is_odd_rounds_spanning_the_k_range(self):
        # Balls halt only in odd position rounds, so even levels would be
        # degenerate (factor exactly 1).
        assert default_levels(1024) == (7, 9, 11, 13, 15, 17, 19, 21)
        assert default_levels(64, 2, 4) == (5, 7, 9, 11, 13)
        for level in default_levels(256, 2, 6):
            assert level % 2 == 1

    def test_ladder_never_starts_below_round_three(self):
        assert default_levels(2, 1, 2)[0] >= 3

    def test_bad_k_range_rejected(self):
        with pytest.raises(ConfigurationError):
            default_levels(64, 3, 2)
        with pytest.raises(ConfigurationError):
            default_levels(64, 0, 2)

    def test_non_increasing_levels_rejected(self):
        config = TailConfig(n=16, levels=(5, 5, 7))
        with pytest.raises(ConfigurationError):
            config.resolved_levels()

    def test_stage_trials_grow_and_cap(self):
        config = TailConfig(n=16, trials=100, growth=4.0, max_trials=1000)
        assert [config.stage_trials(s) for s in range(4)] == [
            100,
            400,
            1000,
            1000,
        ]
        flat = TailConfig(n=16, trials=64)
        assert [flat.stage_trials(s) for s in range(3)] == [64, 64, 64]
        # A growth whose powers overflow a float still meets the cap.
        steep = TailConfig(n=16, trials=100, growth=1e200, max_trials=1000)
        assert [steep.stage_trials(s) for s in range(3)] == [100, 1000, 1000]


class TestConfigValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tail(TailConfig(n=16, algorithm="quicksort"))

    def test_flood_has_no_round_tail(self):
        with pytest.raises(ConfigurationError):
            run_tail(TailConfig(n=16, algorithm="flood"))

    def test_reference_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tail(TailConfig(n=16, kernel="reference"))

    def test_growth_below_one_rejected(self):
        # NaN and infinity are no growth factor either: both used to pass
        # the check and fail inside the second stage's population size.
        for growth in (0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite number >= 1.0"):
                run_tail(TailConfig(n=16, growth=growth))


SMALL = dict(n=16, trials=32, levels=(3, 5, 7), chunk=8, growth=2.0)


class TestDeterminism:
    def test_serial_twice_is_byte_identical(self):
        a = run_tail(TailConfig(seed=4, **SMALL))
        b = run_tail(TailConfig(seed=4, **SMALL))
        assert rows_json(a) == rows_json(b)

    def test_serial_equals_process_pool(self, pool_starts):
        config = TailConfig(seed=4, **SMALL)
        serial = run_tail(config)
        with Executor("process", 2) as executor:
            pooled = run_tail(config, executor=executor)
            # Every stage maps through the caller's one pool, left open.
            assert len(pool_starts) == 1
            assert pool_starts[0].map(abs, [-1]) == [1]
        assert serial.stages == pooled.stages
        assert rows_json(serial) == rows_json(pooled)
        assert len(pooled.stages) == 3
        with pytest.raises(ValueError, match="not running"):
            pool_starts[0].map(abs, [1])

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs both fast engines")
    def test_columnar_equals_vectorized(self):
        # Crosses the engine-interchange boundary: stage-0 checkpoints
        # exported by one engine restore into the other's clones.
        base = dict(SMALL)
        columnar = run_tail(TailConfig(seed=7, kernel="columnar", **base))
        vectorized = run_tail(TailConfig(seed=7, kernel="vectorized", **base))
        assert columnar.stages == vectorized.stages
        a, b = columnar.rows(), vectorized.rows()
        assert a == b

    def test_chunk_size_is_invisible(self):
        narrow = dict(SMALL, chunk=3)
        wide = dict(SMALL, chunk=64)
        a = run_tail(TailConfig(seed=11, **narrow))
        b = run_tail(TailConfig(seed=11, **wide))
        assert a.stages == b.stages

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_executor_identity_is_a_property(self, seed):
        config = TailConfig(
            seed=seed, n=16, trials=16, levels=(3, 5), chunk=4
        )
        serial = run_tail(config)
        with Executor("process", 2) as executor:
            pooled = run_tail(config, executor=executor)
        assert rows_json(serial) == rows_json(pooled)


class TestKernelChoice:
    """``auto`` follows the batch engine's one rule, stage by stage."""

    def test_auto_stacks_a_stage_from_the_stream_floor_up(self, monkeypatch):
        # n=16 with growth 2: stage 0 holds 32 trials (512 streams, below
        # the floor), stage 1 64 (1024, at it) and stage 2 128, so the
        # ladder also crosses from columnar to stacked checkpoints.
        config = TailConfig(seed=5, **SMALL)
        tasks = []
        run_chunk = splitting._run_tail_chunk

        def spy(task):
            tasks.append(task)
            return run_chunk(task)

        monkeypatch.setattr(splitting, "_run_tail_chunk", spy)
        auto = run_tail(config)
        assert len(auto.stages) == 3
        used = {(task[5], task[3]) for task in tasks}  # (level, kernel)
        assert used == {
            (stage.level,
             "vectorized"
             if HAVE_NUMPY and stage.trials * config.n >= MIN_STREAMS
             else "columnar")
            for stage in auto.stages
        }
        assert auto.stages[0].trials * config.n < MIN_STREAMS
        pinned = ["columnar"] + ["vectorized"] * HAVE_NUMPY
        for kernel in pinned:
            other = run_tail(TailConfig(seed=5, kernel=kernel, **SMALL))
            assert rows_json(other) == rows_json(auto)

    def test_pinned_engine_asks_the_one_decision(self, monkeypatch):
        import repro.core.mt19937 as mt19937

        monkeypatch.setattr(mt19937, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError, match="numpy is not installed"):
            run_tail(TailConfig(n=16, kernel="vectorized"))


class TestCheckpointShape:
    """Checkpoints capture one shared, crash-free view on both engines."""

    @staticmethod
    def _split_schedule(n):
        from repro.search.schedule import CrashEvent, Schedule

        # Ball 3 crashes mid-broadcast in round 2, reaching only balls
        # 0 and 1: the survivors split into two view classes.
        return Schedule.of(n, [CrashEvent(2, 3, (0, 1))]).spec()

    def test_columnar_split_run_refuses_to_export(self):
        from repro.core.columnar import ColumnarCrashEngine
        from repro.ids import sparse_ids

        n = 12
        ids = sparse_ids(n)
        engine = ColumnarCrashEngine(
            ids, seed=5, adversary=self._split_schedule(n).build(5),
            crash_budget=n - 1,
        )
        for round_no in (1, 2):
            engine.step(round_no)
        assert len(engine._live) == 2
        with pytest.raises(ConfigurationError, match="2 live view class"):
            engine.export_state()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs the vectorized engine")
    def test_vectorized_split_trial_refuses_to_export(self):
        from repro.core.vectorized import VectorizedCrashEngine
        from repro.ids import sparse_ids

        n = 12
        spec = self._split_schedule(n)
        engine = VectorizedCrashEngine(
            sparse_ids(n), [5, 6],
            adversaries=[spec.build(5), None], crash_budget=n - 1,
        )
        engine.run(stop_after=2)
        with pytest.raises(ConfigurationError, match="holds 2 view class"):
            engine.export_trial_state(0)
        # The failure-free stack-mate still checkpoints.
        assert engine.export_trial_state(1)["running"] == n


#: (policy, halt_on_name) pairs the checkpoint interchange must carry.
CHECKPOINT_VARIANTS = [
    ("random", False),
    ("random", True),
    ("hybrid", False),
    ("rank", False),
    ("leftmost", False),
]


def _columnar_to(ids, seed, policy, halt_on_name, stop_round, state=None,
                 start_round=0):
    """A columnar run advanced to ``stop_round`` (or completion), driven
    like the estimator's worker loop."""
    from repro.core.columnar import ColumnarCrashEngine

    engine = ColumnarCrashEngine(
        ids, seed=seed, policy=policy, halt_on_name=halt_on_name
    )
    round_no = 0
    if state is not None:
        engine.restore_state(state, start_round)
        round_no = start_round
    while engine.running_count and (stop_round is None or round_no < stop_round):
        round_no += 1
        engine.step(round_no)
    return engine, round_no


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs both fast engines")
class TestCheckpointInterchange:
    """Both crash engines emit and accept the same failure-free checkpoint."""

    N = 16

    @pytest.mark.parametrize("stop_round", [1, 2])
    @pytest.mark.parametrize("policy,halt_on_name", CHECKPOINT_VARIANTS)
    def test_engines_export_identical_checkpoints(
        self, policy, halt_on_name, stop_round
    ):
        from repro.core.vectorized import VectorizedCrashEngine
        from repro.ids import sparse_ids

        ids = sparse_ids(self.N)
        columnar, _ = _columnar_to(ids, 21, policy, halt_on_name, stop_round)
        vectorized = VectorizedCrashEngine(
            ids, [21], policy=policy, halt_on_name=halt_on_name
        )
        vectorized.run(stop_after=stop_round)
        assert columnar.running_count > 0
        assert columnar.export_state() == vectorized.export_trial_state(0)

    @pytest.mark.parametrize("policy,halt_on_name", CHECKPOINT_VARIANTS)
    def test_restored_checkpoint_finishes_identically_on_both_engines(
        self, policy, halt_on_name
    ):
        from repro.core.vectorized import VectorizedCrashEngine
        from repro.ids import sparse_ids

        ids = sparse_ids(self.N)
        source, _ = _columnar_to(ids, 8, policy, halt_on_name, 2)
        state = source.export_state()
        # A clone resumes under a fresh seed on each engine.
        columnar, rounds = _columnar_to(
            ids, 99, policy, halt_on_name, None, state=state, start_round=2
        )
        vectorized = VectorizedCrashEngine(
            ids, [99], policy=policy, halt_on_name=halt_on_name
        )
        vectorized.inject_trial_states([state], 2)
        vectorized.run()
        assert columnar.running_count == 0
        assert int(vectorized.running[0]) == 0
        assert int(vectorized.rounds[0]) == rounds > 2
        assert [-1 if d is None else d for d in columnar.decision] == (
            vectorized.decision.tolist()
        )
        assert [-1 if r is None else r for r in columnar.round_named] == (
            vectorized.round_named.tolist()
        )
        assert sorted(columnar.decision) == list(range(self.N))


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the vectorized engine")
class TestResumedSeeding:
    """A resumed stack seeds only the streams that can still draw: the
    ``tail`` workload's chunk shape, resumed at its first level."""

    N, TRIALS, ROUND = 256, 32, 5

    def test_only_unnamed_running_balls_are_seeded(self, monkeypatch):
        import random

        import numpy as np

        from repro.core import vectorized
        from repro.sim.rng import derive_seed

        ids = list(range(self.N))
        source = vectorized.VectorizedCrashEngine(ids, list(range(self.TRIALS)))
        source.run(stop_after=self.ROUND)
        assert (source.running > 0).all()
        states = [source.export_trial_state(t) for t in range(self.TRIALS)]
        seeds = [1000 + t for t in range(self.TRIALS)]

        banks = []

        class SpyBank(vectorized.MTStreamBank):
            """Records the seeds it was built from and every draw."""

            def __init__(self, stream_seeds, **options):
                super().__init__(stream_seeds, **options)
                self.seeds = stream_seeds.tolist()
                self.drawn = {}
                banks.append(self)

            def draws(self, idx):
                out = super().draws(idx)
                for column, value in zip(idx.tolist(), out.tolist()):
                    self.drawn.setdefault(column, []).append(value)
                return out

        monkeypatch.setattr(vectorized, "MTStreamBank", SpyBank)
        engine = vectorized.VectorizedCrashEngine(ids, seeds)
        engine.inject_trial_states(states, self.ROUND)
        engine.run()
        assert not engine.running.any()

        (bank,) = banks
        named = np.concatenate([s["round_named"] for s in states]) >= 0
        halted = np.concatenate([s["halted"] for s in states])
        drawable = np.flatnonzero(~named & ~halted).tolist()
        assert 0 < len(bank.seeds) < self.TRIALS * self.N
        assert bank.seeds == [
            derive_seed(seeds[ball // self.N], "ball", ball % self.N)
            for ball in drawable
        ]
        # Each ball that walked drew its own Random(derive_seed(...)) run.
        assert bank.drawn
        for column, values in bank.drawn.items():
            stream = random.Random(bank.seeds[column])
            assert values == [stream.random() for _ in values]
        # A named ball sits on its leaf: a draw for one is an engine bug.
        ball = int(np.flatnonzero(named)[0])
        with pytest.raises(RuntimeError, match="seeded streams"):
            engine._draw(np.array([ball]))


class TestEstimates:
    def test_stage_zero_is_direct_monte_carlo(self):
        config = TailConfig(seed=1, n=16, trials=64, levels=(5,))
        result = run_tail(config)
        stage = result.stages[0]
        assert stage.trials == 64 and stage.level == 5
        assert result.estimate == pytest.approx(stage.survivors / 64)
        assert result.rows()[-1]["row"] == "estimate"

    def test_extinct_ladder_reports_an_upper_bound(self):
        # Level 99 is far past any terminating run at n=16.
        config = TailConfig(seed=1, n=16, trials=16, levels=(5, 99))
        result = run_tail(config)
        assert result.estimate == 0.0
        assert result.rel_std is None
        bound = result.upper_bound
        assert bound is not None
        last = result.stages[-1]
        assert bound == pytest.approx(
            result.estimate_after(last.stage - 1) / last.trials
        )
        assert "extinct at level 99" in result.render()

    def test_live_ladder_has_no_upper_bound(self):
        config = TailConfig(seed=1, n=16, trials=64, levels=(3,))
        assert run_tail(config).upper_bound is None

    def test_splitting_agrees_with_direct_monte_carlo(self):
        if not HAVE_NUMPY:
            pytest.skip("direct MC sweep needs the vectorized engine")
        import numpy as np

        from repro.core.vectorized import VectorizedCrashEngine
        from repro.sim.rng import derive_seed

        n, level = 16, 7
        # Direct MC: P(rounds > 7) over 4000 independent trials.
        seeds = [derive_seed(2, "p", n, i) for i in range(4000)]
        engine = VectorizedCrashEngine(list(range(n)), seeds)
        engine.run()
        mc = float(np.mean(np.asarray(engine.rounds) > level))
        assert mc > 0  # the event is measurable directly at this n
        # Splitting: two stages (5 then 7) with a grown clone population.
        config = TailConfig(
            seed=6, n=n, trials=256, levels=(5, 7), growth=8.0
        )
        result = run_tail(config)
        assert len(result.stages) == 2
        estimate = result.estimate
        assert estimate > 0
        # Generous joint CI: both are noisy, but they estimate the same
        # probability (mc ~ 0.012 here, rel errors ~ 0.15 each).
        assert 0.3 < estimate / mc < 3.0


class TestExperimentRegistration:
    def test_exp_tail_is_registered(self):
        from repro.experiments.registry import all_experiments

        assert any(
            entry.experiment_id == "EXP-TAIL" for entry in all_experiments()
        )

    def test_smoke_scale_is_deterministic_across_executors(self):
        from repro.experiments import tail

        serial = tail.run(scale="smoke", seed=2)
        with Executor("process", 2) as executor:
            pooled = tail.run(scale="smoke", seed=2, executor=executor)
        assert [t.render() for t in serial.tables] == [
            t.render() for t in pooled.tables
        ]
        assert serial.notes == pooled.notes

    def test_executor_objects_reach_the_pool(self, pool_starts):
        from repro.experiments import tail

        serial = tail.run(scale="smoke")
        with Executor("process", 2) as executor:
            pooled = tail.run(scale="smoke", executor=executor)
        # Every cell's stages share the one pool of the executor passed in.
        assert len(pool_starts) == 1
        assert pooled.render() == serial.render()
