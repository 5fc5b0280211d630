"""Differential suite: the columnar kernel against the reference engine.

The reference lock-step engine is the executable specification; the
columnar fast path earns its existence by being bit-identical to it on
every run it supports — round counts, name assignments, crash sets,
halting sets, per-round metrics — across the algorithm x adversary x
seed grid.  Cells the fast path legitimately rejects must be rejected
*explicitly* (``KernelUnsupported`` when pinned, silent fallback to the
reference kernel under ``auto``), never silently mis-simulated.
"""

from __future__ import annotations

import pytest

from repro.adversary.base import Adversary
from repro.adversary.none import NoFailures
from repro.adversary.random_crash import RandomCrashAdversary
from repro.adversary.sandwich import SandwichAdversary
from repro.adversary.scheduled import ScheduledAdversary, ScheduledCrash
from repro.adversary.splitter import HalfSplitAdversary
from repro.adversary.targeted import TargetedPriorityAdversary
from repro.errors import ConfigurationError, KernelUnsupported, RoundLimitExceeded
from repro.ids import sparse_ids, string_ids
from repro.sim.batch import ScenarioMatrix, run_batch
from repro.sim.kernel import KernelRequest, select_kernel
from repro.sim.runner import ALGORITHMS, run_renaming
from repro.sim.trace import Trace

BIL_ALGORITHMS = sorted(name for name, policy in ALGORITHMS.items() if policy)

ADVERSARY_FACTORIES = {
    "none": lambda seed: None,
    "no-failures": lambda seed: NoFailures(),
    "random": lambda seed: RandomCrashAdversary(0.15, seed=seed),
    "random-uniform": lambda seed: RandomCrashAdversary(
        0.2, delivery="uniform", seed=seed
    ),
    "targeted": lambda seed: TargetedPriorityAdversary(max_crashes=3, seed=seed),
    "sandwich": lambda seed: SandwichAdversary(seed=seed),
    "half-split": lambda seed: HalfSplitAdversary(seed=seed),
}

#: The failure-free cells (single shared view, no crash bookkeeping).
FAILURE_FREE = ("none", "no-failures")

#: Certified crashing adversaries: partial deliveries, divergent view
#: classes, and (with halt_on_name) the announced-termination lifecycle
#: all run on the columnar crash engine.
CRASHING = ("random", "random-uniform", "targeted", "sandwich", "half-split")


class UncertifiedAdversary(Adversary):
    """A custom strategy the columnar kernel cannot certify."""

    def plan(self, ctx):
        return {}


def _run(algorithm, n, seed, kernel, adversary_key="none", **kwargs):
    return run_renaming(
        algorithm,
        sparse_ids(n),
        seed=seed,
        adversary=ADVERSARY_FACTORIES[adversary_key](seed),
        kernel=kernel,
        **kwargs,
    )


def assert_bit_identical(reference, columnar):
    """The full equivalence contract between two runs of one spec."""
    assert columnar.kernel == "columnar"
    assert reference.kernel == "reference"
    assert columnar.rounds == reference.rounds
    assert columnar.names == reference.names
    assert columnar.crashed == reference.crashed
    assert columnar.failures == reference.failures
    assert columnar.last_round_named == reference.last_round_named
    assert columnar.result.decisions == reference.result.decisions
    assert columnar.result.halted == reference.result.halted
    assert columnar.result.participants == reference.result.participants
    # Per-round metrics, field for field (RoundMetrics is a dataclass).
    assert columnar.metrics.rounds == reference.metrics.rounds


class TestSupportedCells:
    @pytest.mark.parametrize("algorithm", BIL_ALGORITHMS)
    @pytest.mark.parametrize("adversary_key", FAILURE_FREE)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_failure_free_grid_bit_identical(self, algorithm, adversary_key, seed):
        for n in (1, 2, 7, 16, 33):
            reference = _run(algorithm, n, seed, "reference", adversary_key)
            columnar = _run(algorithm, n, seed, "columnar", adversary_key)
            assert_bit_identical(reference, columnar)

    @pytest.mark.parametrize("algorithm", BIL_ALGORITHMS)
    def test_halt_on_name_bit_identical(self, algorithm):
        for seed in (0, 3):
            reference = _run(algorithm, 24, seed, "reference", halt_on_name=True)
            columnar = _run(algorithm, 24, seed, "columnar", halt_on_name=True)
            assert_bit_identical(reference, columnar)

    @pytest.mark.parametrize("adversary_key", CRASHING)
    @pytest.mark.parametrize("halt", [False, True])
    def test_crash_grid_bit_identical(self, adversary_key, halt):
        """Certified crashing adversaries run on the columnar crash
        engine — partial deliveries, view-class splits and all."""
        for n in (1, 2, 9, 24):
            for seed in (0, 1):
                reference = _run(
                    "balls-into-leaves", n, seed, "reference", adversary_key,
                    halt_on_name=halt,
                )
                columnar = _run(
                    "balls-into-leaves", n, seed, "columnar", adversary_key,
                    halt_on_name=halt,
                )
                assert_bit_identical(reference, columnar)

    @pytest.mark.parametrize("algorithm", BIL_ALGORITHMS)
    def test_crash_variants_bit_identical(self, algorithm):
        reference = _run(algorithm, 16, 2, "reference", "random", halt_on_name=True)
        columnar = _run(algorithm, 16, 2, "columnar", "random", halt_on_name=True)
        assert_bit_identical(reference, columnar)

    def test_mid_path_crash_ghost_repro_bit_identical(self):
        """The lifecycle-bug repro itself runs on both kernels."""
        ids = sparse_ids(9)
        schedule = [ScheduledCrash(2, ids[0], receivers=[ids[1]])]
        runs = {
            kernel: run_renaming(
                "balls-into-leaves",
                ids,
                seed=1,
                adversary=ScheduledAdversary(schedule),
                halt_on_name=True,
                kernel=kernel,
            )
            for kernel in ("reference", "columnar")
        }
        assert_bit_identical(runs["reference"], runs["columnar"])

    def test_auto_selects_columnar_for_certified_adversaries(self):
        run = _run("balls-into-leaves", 16, 0, "auto", "random")
        assert run.kernel == "columnar"

    def test_faithful_view_mode_stays_on_reference(self):
        # Asking for the paper-verbatim per-ball store is asking for the
        # reference engine: auto must not silently swap in the fast path.
        run = _run("balls-into-leaves", 16, 5, "auto", view_mode="faithful")
        assert run.kernel == "reference"
        with pytest.raises(KernelUnsupported) as caught:
            _run("balls-into-leaves", 16, 5, "columnar", view_mode="faithful")
        assert "faithful" in str(caught.value)

    def test_string_ids_bit_identical(self):
        reference = run_renaming("balls-into-leaves", string_ids(13), seed=2,
                                 kernel="reference")
        columnar = run_renaming("balls-into-leaves", string_ids(13), seed=2,
                                kernel="columnar")
        assert_bit_identical(reference, columnar)

    def test_auto_selects_columnar_on_supported_cells(self):
        run = _run("balls-into-leaves", 16, 0, "auto")
        assert run.kernel == "columnar"

    def test_round_limit_raised_identically(self):
        for kernel in ("reference", "columnar"):
            with pytest.raises(RoundLimitExceeded) as caught:
                _run("balls-into-leaves", 32, 0, kernel, max_rounds=3)
            assert caught.value.limit == 3
            assert caught.value.alive == 32

    def test_bad_budget_rejected_identically(self):
        for kernel in ("reference", "columnar"):
            with pytest.raises(ConfigurationError):
                _run("balls-into-leaves", 8, 0, kernel, crash_budget=8)


class TestRejectedCells:
    """Unsupported cells: explicit rejection, reference fallback."""

    def test_uncertified_adversary_rejected_explicitly(self):
        """Custom adversary types may introspect process objects the
        fast path never materializes: explicit rejection, auto falls
        back to the reference engine."""
        with pytest.raises(KernelUnsupported) as caught:
            run_renaming(
                "balls-into-leaves",
                sparse_ids(16),
                adversary=UncertifiedAdversary(),
                kernel="columnar",
            )
        assert caught.value.kernel == "columnar"
        assert "certified" in caught.value.reason
        fallback = run_renaming(
            "balls-into-leaves",
            sparse_ids(16),
            adversary=UncertifiedAdversary(),
            kernel="auto",
        )
        assert fallback.kernel == "reference"

    def test_no_failures_subclass_is_not_certified(self):
        class SneakyNoFailures(NoFailures):
            def plan(self, ctx):
                return {}

        with pytest.raises(KernelUnsupported):
            run_renaming(
                "balls-into-leaves",
                sparse_ids(8),
                adversary=SneakyNoFailures(),
                kernel="columnar",
            )

    def test_flood_rejected_explicitly(self):
        with pytest.raises(KernelUnsupported):
            _run("flood", 8, 0, "columnar")
        assert _run("flood", 8, 0, "auto").kernel == "reference"

    def test_trace_rejected_explicitly(self):
        with pytest.raises(KernelUnsupported):
            run_renaming(
                "balls-into-leaves", sparse_ids(8), trace=Trace(), kernel="columnar"
            )
        run = run_renaming(
            "balls-into-leaves", sparse_ids(8), trace=Trace(), kernel="auto"
        )
        assert run.kernel == "reference"

    def test_phase_stats_rejected_explicitly(self):
        with pytest.raises(KernelUnsupported):
            run_renaming(
                "balls-into-leaves",
                sparse_ids(8),
                collect_phase_stats=True,
                kernel="columnar",
            )
        run = run_renaming(
            "balls-into-leaves", sparse_ids(8), collect_phase_stats=True, kernel="auto"
        )
        assert run.kernel == "reference"
        assert run.phase_stats  # the fallback still collects them

    def test_check_invariants_runs_columnar_with_cheap_monitors(self):
        # check_invariants used to force the reference engine; it now
        # routes to the columnar invariant monitors instead.
        run = run_renaming(
            "balls-into-leaves",
            sparse_ids(8),
            check_invariants=True,
            kernel="columnar",
        )
        assert run.monitor == "cheap"
        assert run.violations == []
        auto = run_renaming(
            "balls-into-leaves", sparse_ids(8), check_invariants=True, kernel="auto"
        )
        assert auto.kernel != "reference"

    def test_full_monitor_rejected_explicitly(self):
        # monitor="full" audits the reference engine's instrumented
        # movement and stays reference-only.
        with pytest.raises(KernelUnsupported):
            run_renaming(
                "balls-into-leaves",
                sparse_ids(8),
                monitor="full",
                kernel="columnar",
            )
        run = run_renaming(
            "balls-into-leaves", sparse_ids(8), monitor="full", kernel="auto"
        )
        assert run.kernel == "reference"
        assert run.monitor == "full"
        assert run.violations == []

    def test_unknown_kernel_name(self):
        with pytest.raises(ConfigurationError):
            _run("balls-into-leaves", 8, 0, "simd")

    def test_rejection_reason_reaches_select_kernel(self):
        request = KernelRequest(
            algorithm="flood",
            ids=tuple(sparse_ids(4)),
            seed=0,
            policy=None,
            crash_budget=3,
            max_rounds=20,
        )
        with pytest.raises(KernelUnsupported) as caught:
            select_kernel("columnar", request)
        assert "flood" in str(caught.value)
        assert select_kernel("auto", request).name == "reference"
        assert select_kernel("reference", request).name == "reference"


class TestBatchEquivalence:
    """The batch engine produces identical cells on either kernel."""

    def test_matrix_cells_identical_across_kernels(self):
        batches = {}
        for kernel in ("reference", "columnar"):
            matrix = ScenarioMatrix.build(
                BIL_ALGORITHMS,
                [8, 16],
                ["none"],
                trials=4,
                base_seed=11,
                kernel=kernel,
            )
            batches[kernel] = run_batch(matrix)
        for ref, col in zip(
            batches["reference"].trials, batches["columnar"].trials
        ):
            assert ref.spec.cell == col.spec.cell
            assert ref.rounds == col.rounds
            assert ref.failures == col.failures
            assert ref.messages_sent == col.messages_sent
            assert ref.messages_delivered == col.messages_delivered
            assert ref.last_round_named == col.last_round_named
            assert ref.names == col.names
            assert ref.kernel != col.kernel  # both pinned, different engines

    def test_auto_matrix_mixes_kernels_per_cell(self):
        # Cells at the stream floor: 128 trials x n=8 is 1024 streams.
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves", "flood"], [8], ["none"], trials=128, base_seed=0
        )
        batch = run_batch(matrix)
        kernels = {trial.spec.algorithm: trial.kernel for trial in batch.trials}
        # At the stream floor, failure-free BiL cells stack on the
        # vectorized engine when NumPy is available and fall back to
        # columnar otherwise; flood is not BiL-based and stays on the
        # reference engine either way.
        from repro.sim.vectorized import vectorized_available

        expected_bil = "vectorized" if vectorized_available() else "columnar"
        assert kernels == {"balls-into-leaves": expected_bil, "flood": "reference"}

    def test_unknown_kernel_rejected_at_build(self):
        with pytest.raises(ConfigurationError):
            ScenarioMatrix.build(
                ["balls-into-leaves"], [8], ["none"], trials=1, kernel="quantum"
            )


@pytest.mark.tier2
class TestDeepDifferential:
    """Nightly: a larger grid, deeper sizes, more seeds."""

    @pytest.mark.parametrize("algorithm", BIL_ALGORITHMS)
    def test_large_grid_bit_identical(self, algorithm):
        for n in (64, 129, 512):
            for seed in range(5):
                for halt in (False, True):
                    reference = _run(
                        algorithm, n, seed, "reference", halt_on_name=halt
                    )
                    columnar = _run(
                        algorithm, n, seed, "columnar", halt_on_name=halt
                    )
                    assert_bit_identical(reference, columnar)

    @pytest.mark.parametrize("algorithm", BIL_ALGORITHMS)
    @pytest.mark.parametrize("adversary_key", CRASHING)
    def test_crash_halt_grid_bit_identical(self, algorithm, adversary_key):
        """Nightly crash x halt-on-name grid: the full certified
        adversary suite against every BiL algorithm on both kernels."""
        for n in (33, 64, 129):
            for seed in range(3):
                for halt in (False, True):
                    reference = _run(
                        algorithm, n, seed, "reference", adversary_key,
                        halt_on_name=halt,
                    )
                    columnar = _run(
                        algorithm, n, seed, "columnar", adversary_key,
                        halt_on_name=halt,
                    )
                    assert_bit_identical(reference, columnar)
