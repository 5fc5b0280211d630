"""Property tests for the batch engine: determinism under parallelism.

The engine's contract is that the execution backend is invisible in the
results: the same :class:`ScenarioMatrix` run on the serial and the
multiprocessing executor yields identical :class:`BatchResult` cells,
trial for trial — and the engine's legacy seed schedule reproduces the
historical per-experiment serial loops byte for byte.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.random_crash import RandomCrashAdversary
from repro.analysis.tables import Table
from repro.experiments.common import round_stats
from repro.ids import sparse_ids
from repro.sim.batch import Executor, ScenarioMatrix, run_batch
from repro.sim.runner import run_renaming
from repro.sim.specs import AdversarySpec

#: >= 3 algorithms x >= 2 adversaries, per the determinism contract.
MATRIX_ALGORITHMS = ("balls-into-leaves", "early-terminating", "rank-descent")
MATRIX_ADVERSARIES = (
    AdversarySpec.of("random", rate=0.2),
    AdversarySpec.of("sandwich"),
)


class TestSerialEqualsMultiprocessing:
    def test_identical_cells_across_executors(self):
        matrix = ScenarioMatrix.build(
            MATRIX_ALGORITHMS,
            [8, 16],
            MATRIX_ADVERSARIES,
            trials=3,
            base_seed=11,
        )
        serial = run_batch(matrix)
        with Executor("process", 4) as executor:
            parallel = run_batch(matrix, executor=executor)
        assert serial.trials == parallel.trials  # every scalar, every name
        assert list(serial.cells()) == list(parallel.cells())
        for key, cell in serial.cells().items():
            assert parallel.cells()[key] == cell

    @pytest.mark.tier2
    def test_identical_cells_across_executors_large(self):
        matrix = ScenarioMatrix.build(
            MATRIX_ALGORITHMS + ("leftmost", "flood"),
            [8, 16, 32],
            MATRIX_ADVERSARIES + (AdversarySpec.of("none"), AdversarySpec.of("targeted")),
            trials=10,
            base_seed=2,
        )
        serial = run_batch(matrix)
        with Executor("process", 4) as executor:
            parallel = run_batch(matrix, executor=executor)
        assert serial.trials == parallel.trials


class TestByteIdenticalWithLegacySerialPath:
    """The t2_scaling acceptance bar: engine tables == seed serial loop."""

    def _legacy_table(self, n: int, trials: int, base_seed: int) -> str:
        table = Table("rounds", ["n", "ff mean", "ff p95", "crash mean", "mean f"])
        ids = sparse_ids(n)
        ff, crash = [], []
        for trial in range(trials):
            seed = base_seed * 100_003 + trial
            ff.append(run_renaming("balls-into-leaves", ids, seed=seed))
        for trial in range(trials):
            seed = (base_seed + 1) * 100_003 + trial
            crash.append(
                run_renaming(
                    "balls-into-leaves",
                    ids,
                    seed=seed,
                    adversary=RandomCrashAdversary(0.05, seed=seed),
                )
            )
        ff_stats, crash_stats = round_stats(ff), round_stats(crash)
        table.add_row(
            n,
            ff_stats.mean,
            ff_stats.p95,
            crash_stats.mean,
            sum(r.failures for r in crash) / len(crash),
        )
        return table.render()

    def _engine_table(self, n: int, trials: int, base_seed: int, **batch_kwargs) -> str:
        table = Table("rounds", ["n", "ff mean", "ff p95", "crash mean", "mean f"])
        crash_spec = AdversarySpec.of("random", rate=0.05)
        ff = run_batch(
            ScenarioMatrix.build(
                ["balls-into-leaves"], [n], ["none"], trials=trials, base_seed=base_seed
            ),
            **batch_kwargs,
        ).cell("balls-into-leaves", n)
        crash = run_batch(
            ScenarioMatrix.build(
                ["balls-into-leaves"], [n], [crash_spec], trials=trials, base_seed=base_seed + 1
            ),
            **batch_kwargs,
        ).cell("balls-into-leaves", n, crash_spec)
        ff_stats, crash_stats = round_stats(ff), round_stats(crash)
        table.add_row(
            n,
            ff_stats.mean,
            ff_stats.p95,
            crash_stats.mean,
            sum(r.failures for r in crash) / len(crash),
        )
        return table.render()

    def test_small_sweep_byte_identical(self):
        legacy = self._legacy_table(16, 10, base_seed=3)
        assert self._engine_table(16, 10, base_seed=3) == legacy
        with Executor("process", 2) as executor:
            assert self._engine_table(16, 10, base_seed=3, executor=executor) == legacy

    @pytest.mark.tier2
    def test_paper_scale_sweep_byte_identical(self):
        """64 processes, 100 seeds: serial path == engine, any backend."""
        legacy = self._legacy_table(64, 100, base_seed=0)
        assert self._engine_table(64, 100, base_seed=0) == legacy
        with Executor("process", 4) as executor:
            assert self._engine_table(64, 100, base_seed=0, executor=executor) == legacy


class TestMatrixProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        base_seed=st.integers(min_value=0, max_value=10_000),
        trials=st.integers(min_value=1, max_value=5),
    )
    def test_expansion_is_deterministic_and_complete(self, base_seed, trials):
        matrix = ScenarioMatrix.build(
            MATRIX_ALGORITHMS,
            [4, 8],
            MATRIX_ADVERSARIES,
            trials=trials,
            base_seed=base_seed,
        )
        specs = matrix.expand()
        assert specs == matrix.expand()  # stable
        assert len(specs) == len(MATRIX_ALGORITHMS) * 2 * len(MATRIX_ADVERSARIES) * trials
        # Every cell gets exactly `trials` distinct seeds, in ascending
        # trial order.
        by_cell = {}
        for spec in specs:
            by_cell.setdefault(spec.cell, []).append(spec.seed)
        assert all(len(set(seeds)) == trials for seeds in by_cell.values())
        assert all(seeds == sorted(seeds) for seeds in by_cell.values())
