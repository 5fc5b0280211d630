"""The trial-stacked vectorized kernel: stacking, planning, rejection.

That a stacked cell is **bit-for-bit identical** to running its trials
one by one on the columnar (and hence reference) kernel is the
differential oracle's job (``tests/test_oracle.py``); the nightly
1000-trial cell below keeps one long stack in reach.  This file pins
what stacking adds: trial order and stream-budget chunking are
invisible, ``auto`` batches upgrade exactly the eligible cells, and
cells the stacked layout cannot model are rejected explicitly
(``KernelUnsupported`` when pinned, per-trial fallback under ``auto``),
never silently mis-simulated.

With NumPy absent the stacking tests skip and the rejection tests
assert the degraded behavior: imports stay clean, ``auto`` falls back to
the columnar engine, and pinning ``kernel="vectorized"`` raises with an
install hint.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import KernelUnsupported
from repro.ids import sparse_ids
from repro.sim import batch
from repro.sim.batch import (
    ScenarioMatrix,
    TrialSpec,
    plan_tasks,
    run_batch,
    run_cell,
    run_trial,
)
from repro.sim.runner import run_renaming
from repro.sim.trace import Trace
from repro.sim.vectorized import vectorized_available

needs_numpy = pytest.mark.skipif(
    not vectorized_available(), reason="numpy not installed (the .[fast] extra)"
)


def _strip_kernel(result):
    """A TrialResult's identity minus the engine label."""
    return (
        result.spec,
        result.rounds,
        result.failures,
        result.messages_sent,
        result.messages_delivered,
        result.last_round_named,
        result.names,
    )


def _cell_specs(algorithm, n, seeds, *, kernel="vectorized"):
    return [
        TrialSpec(algorithm=algorithm, n=n, seed=seed, kernel=kernel)
        for seed in seeds
    ]


@needs_numpy
class TestStackedCellEquivalence:
    """Whole cells vs. per-trial columnar execution."""

    def test_trial_order_inside_a_stack_is_irrelevant(self):
        """Shuffling a stacked cell's trials changes no per-trial result."""
        seeds = list(range(30))
        specs = _cell_specs("balls-into-leaves", 32, seeds)
        straight = {r.spec.seed: _strip_kernel(r) for r in run_cell(specs)}
        shuffled_seeds = seeds[:]
        random.Random(7).shuffle(shuffled_seeds)
        shuffled = run_cell(_cell_specs("balls-into-leaves", 32, shuffled_seeds))
        for result in shuffled:
            assert _strip_kernel(result) == straight[result.spec.seed]

    def test_stream_budget_chunking_is_invisible(self, monkeypatch):
        """A tiny stream budget splits stacks without changing bits."""
        specs = _cell_specs("balls-into-leaves", 16, range(10))
        whole = run_batch(specs).trials
        monkeypatch.setattr(batch, "MAX_STREAMS", 48)  # 3 trials per stack
        tasks = plan_tasks(specs)
        assert len(tasks) == 4 and all(isinstance(t, tuple) for t in tasks[:3])
        chunked = run_batch(specs).trials
        assert chunked == whole

    def test_batch_auto_upgrade_matches_pinned_columnar_batch(self):
        # Cells at the stream floor: 64 trials x n=16 is 1024 streams.
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves", "early-terminating"], [16, 33],
            trials=64, base_seed=3,
        )
        auto = run_batch(matrix)
        columnar = run_batch(
            ScenarioMatrix.build(
                ["balls-into-leaves", "early-terminating"], [16, 33],
                trials=64, base_seed=3, kernel="columnar",
            )
        )
        assert len(auto) == len(columnar) == 256
        for upgraded, pinned in zip(auto.trials, columnar.trials):
            assert upgraded.kernel == "vectorized"
            assert pinned.kernel == "columnar"
            assert _strip_kernel(upgraded)[1:] == _strip_kernel(pinned)[1:]
        # Cell statistics — what the experiment tables consume — agree
        # exactly, so the upgrade cannot move a published number.
        assert auto.cell_stats() == columnar.cell_stats()

    def test_mixed_matrix_stacks_only_eligible_cells(self):
        # Cells at the stream floor: 128 trials x n=8 is 1024 streams.
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves", "flood"], [8],
            ["none", "random:rate=0.2"], trials=128, base_seed=0,
        )
        batch = run_batch(matrix)
        kernels = {
            (trial.spec.algorithm, trial.spec.adversary.key): trial.kernel
            for trial in batch.trials
        }
        # At the stream floor, certified crash cells stack too (the
        # crash engine); non-BiL algorithms keep the scalar path
        # outright.
        assert kernels == {
            ("balls-into-leaves", "none"): "vectorized",
            ("balls-into-leaves", "random:rate=0.2"): "vectorized",
            ("flood", "none"): "reference",
            ("flood", "random:rate=0.2"): "reference",
        }

    def test_serial_and_process_backends_agree_on_stacked_cells(self):
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves"], [16], trials=8, base_seed=1,
            kernel="vectorized",
        )
        serial = run_batch(matrix, executor="serial")
        process = run_batch(matrix, executor="process", workers=2)
        assert serial.trials == process.trials
        assert {t.kernel for t in serial.trials} == {"vectorized"}


class TestTaskPlanning:
    """plan_tasks grouping rules (NumPy-independent where possible)."""

    def test_single_trial_cells_stay_individual(self):
        specs = _cell_specs("balls-into-leaves", 8, [0], kernel="auto")
        assert plan_tasks(specs) == specs

    def test_pinned_scalar_kernels_never_stack(self):
        for kernel in ("reference", "columnar"):
            specs = _cell_specs("balls-into-leaves", 8, range(4), kernel=kernel)
            assert plan_tasks(specs) == specs

    def test_parts_split_large_stacks_for_worker_spread(self):
        if not vectorized_available():
            pytest.skip("grouping requires the vectorized engine")
        specs = _cell_specs("balls-into-leaves", 8, range(12))
        tasks = plan_tasks(specs, parts=3)
        assert [len(task) for task in tasks] == [4, 4, 4]
        assert [spec.seed for task in tasks for spec in task] == list(range(12))


class TestRejections:
    def test_run_cell_rejects_mixed_cell_configs(self):
        """Direct callers cannot silently run seeds under the wrong cell."""
        from repro.errors import ConfigurationError

        mixed = [
            TrialSpec(algorithm="balls-into-leaves", n=8, seed=0),
            TrialSpec(algorithm="balls-into-leaves", n=16, seed=1),
        ]
        with pytest.raises(ConfigurationError) as caught:
            run_cell(mixed)
        assert "same-cell" in str(caught.value)

    def test_pinned_vectorized_rejects_uncertified_adversaries(self):
        class Rogue:
            name = "rogue"

            def plan_crashes(self, ctx):  # pragma: no cover - never runs
                return ()

        with pytest.raises(KernelUnsupported) as caught:
            run_renaming(
                "balls-into-leaves", sparse_ids(8), seed=0,
                adversary=Rogue(),
                kernel="vectorized",
            )
        assert "not columnar-certified" in str(caught.value)

    def test_pinned_vectorized_rejects_non_bil_algorithms(self):
        with pytest.raises(KernelUnsupported):
            run_renaming("flood", sparse_ids(8), seed=0, kernel="vectorized")

    def test_pinned_vectorized_rejects_faithful_view_and_traces(self):
        with pytest.raises(KernelUnsupported) as caught:
            run_renaming(
                "balls-into-leaves", sparse_ids(8), seed=0,
                view_mode="faithful", kernel="vectorized",
            )
        assert "faithful" in str(caught.value)
        with pytest.raises(KernelUnsupported):
            run_renaming(
                "balls-into-leaves", sparse_ids(8), seed=0,
                trace=Trace(), kernel="vectorized",
            )

    def test_auto_never_selects_vectorized_for_single_runs(self):
        run = run_renaming("balls-into-leaves", sparse_ids(8), seed=0, kernel="auto")
        assert run.kernel == "columnar"


class TestNumpyFallback:
    """The degraded grid when the .[fast] extra is missing."""

    def _force_unavailable(self, monkeypatch):
        import repro.core.mt19937 as mt19937
        import repro.core.vectorized as core_vec

        monkeypatch.setattr(mt19937, "HAVE_NUMPY", False)
        monkeypatch.setattr(core_vec, "HAVE_NUMPY", False)

    def test_pinned_vectorized_raises_with_install_hint(self, monkeypatch):
        self._force_unavailable(monkeypatch)
        with pytest.raises(KernelUnsupported) as caught:
            run_renaming(
                "balls-into-leaves", sparse_ids(8), seed=0, kernel="vectorized"
            )
        assert "numpy" in str(caught.value)
        assert "[fast]" in str(caught.value)

    def test_auto_batches_fall_back_to_columnar_per_trial(self, monkeypatch):
        self._force_unavailable(monkeypatch)
        specs = _cell_specs("balls-into-leaves", 8, range(3), kernel="auto")
        assert plan_tasks(specs) == specs  # nothing stacks
        batch = run_batch(specs)
        assert {trial.kernel for trial in batch.trials} == {"columnar"}


@pytest.mark.tier2
@needs_numpy
class TestDeepStackedDifferential:
    """Nightly: a 1000-trial cell."""

    def test_thousand_trial_cell_identity(self):
        seeds = [trial * 100_003 for trial in range(1000)]
        specs = _cell_specs("balls-into-leaves", 64, seeds)
        stacked = run_cell(specs)
        assert len(stacked) == 1000
        for spec, result in zip(specs[::97], stacked[::97]):
            reference = run_trial(
                TrialSpec(algorithm="balls-into-leaves", n=64, seed=spec.seed,
                          kernel="columnar")
            )
            assert _strip_kernel(result)[1:] == _strip_kernel(reference)[1:]
