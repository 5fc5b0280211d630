"""Kernel selection: which kernel runs which cell, and why not.

The reference lock-step engine is the executable specification; that
the columnar fast path is bit-identical to it on every run it supports
is the differential oracle's job (``tests/test_oracle.py``).  This file
pins the other half of the contract: cells the fast path legitimately
rejects must be rejected *explicitly* (``KernelUnsupported`` when
pinned, silent fallback to the reference kernel under ``auto``), never
silently mis-simulated, and ``auto`` picks the fast path where it can.
"""

from __future__ import annotations

import pytest

from repro.adversary.base import Adversary
from repro.adversary.none import NoFailures
from repro.adversary.random_crash import RandomCrashAdversary
from repro.errors import ConfigurationError, KernelUnsupported
from repro.ids import sparse_ids
from repro.sim.batch import ScenarioMatrix, run_batch
from repro.sim.kernel import KernelRequest, select_kernel
from repro.sim.runner import run_renaming
from repro.sim.trace import Trace

ADVERSARY_FACTORIES = {
    "none": lambda seed: None,
    "random": lambda seed: RandomCrashAdversary(0.15, seed=seed),
}


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


class TestSupportedCells:
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

    def test_auto_selects_columnar_on_supported_cells(self):
        run = _run("balls-into-leaves", 16, 0, "auto")
        assert run.kernel == "columnar"

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
    """Batch cells resolve their kernel cell by cell."""

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
