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
from repro.adversary.omission import IIDOmissionAdversary
from repro.adversary.random_crash import RandomCrashAdversary
from repro.core import mt19937
from repro.errors import ConfigurationError, KernelUnsupported
from repro.ids import sparse_ids
from repro.sim.batch import ScenarioMatrix, plan_tasks, run_batch
from repro.sim.kernel import (
    MIN_STREAMS,
    KernelRequest,
    auto_kernel,
    kernel_rejection,
    select_kernel,
)
from repro.sim.runner import ALGORITHMS, run_renaming
from repro.sim.specs import AdversarySpec, TrialSpec

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
        """``run_renaming`` checks ``0 <= t < n`` before it picks a
        kernel, so every kernel, pinned or not, rejects a bad budget with
        one message; without NumPy the budget is reported before the
        pinned vectorized kernel is rejected."""
        for budget in (8, -1):
            for kernel in ("reference", "columnar", "vectorized", "auto"):
                with pytest.raises(ConfigurationError) as caught:
                    _run("balls-into-leaves", 8, 0, kernel, crash_budget=budget)
                assert type(caught.value) is ConfigurationError
                assert str(caught.value) == (
                    f"crash budget must satisfy 0 <= t < n; got t={budget}, n=8"
                ), kernel


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
                "balls-into-leaves", sparse_ids(8), trace="full", kernel="columnar"
            )
        run = run_renaming(
            "balls-into-leaves", sparse_ids(8), trace="full", kernel="auto"
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


BOTH = {"columnar", "vectorized"}

#: One case per reason the one decision can give (plus one it accepts):
#: ``run_renaming`` keywords (an adversary as a factory, so every run
#: gets a fresh one), the ``TrialSpec`` keywords of a cell with the same
#: reason (None where a spec cannot carry it: specs name only certified
#: adversaries, and have no view mode or phase statistics), the engines
#: that reject it, and a fragment of the reason's wording.
REASONS = {
    "accepted": ({}, {}, set(), None),
    "non-bil": (
        {"algorithm": "flood"}, {"algorithm": "flood"}, BOTH,
        "is not Balls-into-Leaves-based",
    ),
    "uncertified": (
        {"adversary": UncertifiedAdversary}, None, BOTH,
        "is not columnar-certified",
    ),
    "omission": (
        {"adversary": lambda: IIDOmissionAdversary(0.1, seed=0)},
        {"adversary": AdversarySpec.of("omission", p=0.1)},
        {"vectorized"},
        "plans fault family 'omission'",
    ),
    "faithful": ({"view_mode": "faithful"}, None, BOTH, "view mode 'faithful'"),
    "full-trace": (
        {"trace": "full"}, {"trace": "full"}, BOTH, "full trace recording",
    ),
    "phase-stats": (
        {"collect_phase_stats": True}, None, BOTH, "phase statistics",
    ),
    "monitor-full": (
        {"monitor": "full"}, {"monitor": "full"}, BOTH, "monitor='full'",
    ),
    "numpy-blocked": ({}, {}, {"vectorized"}, "numpy is not installed"),
}


def _decision_run(run_kwargs, kernel):
    kwargs = dict(run_kwargs)
    algorithm = kwargs.pop("algorithm", "balls-into-leaves")
    if "adversary" in kwargs:
        kwargs["adversary"] = kwargs["adversary"]()
    return run_renaming(
        algorithm, sparse_ids(8), seed=3, kernel=kernel, check=False, **kwargs
    )


def _decision_fields(run_kwargs):
    """The request fields ``select_kernel`` hands the one decision."""
    algorithm = run_kwargs.get("algorithm", "balls-into-leaves")
    factory = run_kwargs.get("adversary")
    return dict(
        algorithm=algorithm,
        policy=ALGORITHMS[algorithm],
        adversary=factory() if factory is not None else None,
        trace=run_kwargs.get("trace", "off"),
        monitor=run_kwargs.get("monitor", "off"),
        phase_stats=run_kwargs.get("collect_phase_stats", False),
        view_mode=run_kwargs.get("view_mode", "shared"),
    )


class TestOneDecision:
    """``kernel_rejection`` is the one answer to "may this engine run
    this": a pinned engine raises with exactly its reason, ``auto``
    lands where ``auto_kernel``'s rule says, and ``plan_tasks`` stacks
    a cell exactly when the pinned vectorized engine accepts it."""

    @pytest.mark.parametrize("case", list(REASONS))
    def test_pinned_auto_and_planned_choices_agree(self, case, monkeypatch):
        run_kwargs, spec_kwargs, rejecting, wording = REASONS[case]
        if case == "numpy-blocked":
            monkeypatch.setattr(mt19937, "HAVE_NUMPY", False)
        fields = _decision_fields(run_kwargs)
        # The case's own reason comes first in every engine it names.
        for kernel in rejecting:
            assert wording in kernel_rejection(kernel, **fields)
        if not mt19937.HAVE_NUMPY:
            rejecting = rejecting | {"vectorized"}

        for kernel in ("columnar", "vectorized"):
            reason = kernel_rejection(kernel, **fields)
            if kernel not in rejecting:
                assert reason is None
                assert _decision_run(run_kwargs, kernel).kernel == kernel
                continue
            assert reason is not None
            with pytest.raises(KernelUnsupported) as caught:
                _decision_run(run_kwargs, kernel)
            assert caught.value.kernel == kernel
            assert caught.value.reason == reason
            assert str(caught.value) == (
                f"kernel {kernel!r} cannot run this simulation: {reason}"
            )

        single = "reference" if "columnar" in rejecting else "columnar"
        assert _decision_run(run_kwargs, "auto").kernel == single
        assert auto_kernel(1, 8, **fields) == single
        # 31 x 33 streams is one below the floor; 32 x 32 is at it.
        assert 31 * 33 == MIN_STREAMS - 1 and 32 * 32 == MIN_STREAMS
        assert auto_kernel(31, 33, **fields) == single
        stacked = "vectorized" not in rejecting
        assert auto_kernel(32, 32, **fields) == ("vectorized" if stacked else single)

        if spec_kwargs is not None:
            specs = [
                TrialSpec(
                    **{"algorithm": "balls-into-leaves", "n": 32, "seed": seed,
                       "check": False, **spec_kwargs}
                )
                for seed in range(32)
            ]
            assert plan_tasks(specs) == ([tuple(specs)] if stacked else specs)
