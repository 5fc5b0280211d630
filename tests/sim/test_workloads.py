"""The non-renaming workloads on the TrialSpec rails.

Section 1-2 of the paper frames Balls-into-Leaves against two related
workloads: parallel load balancing (fast, but assumes consistent bin
views) and approximate agreement (the substrate of the order-preserving
renaming it cites).  Both now run through the same registry, kernels,
batch grid, and hunts as the renaming algorithms, so the fault-injection
layer can measure exactly the claims the paper makes about them —
parallel retry loses tightness when views diverge, approximate agreement
degrades gracefully.
"""

from __future__ import annotations

import pytest

from repro.adversary import RandomCrashAdversary, TargetedOmissionAdversary
from repro.errors import ConfigurationError, KernelUnsupported, SpecViolation
from repro.ids import sparse_ids
from repro.sim.batch import ScenarioMatrix, run_batch, run_trial
from repro.sim.runner import (
    ALGORITHMS,
    WORKLOADS,
    default_round_limit,
    run_renaming,
    workload,
)
from repro.sim.specs import AdversarySpec, TrialSpec


class TestWorkloadRegistry:
    def test_algorithms_is_the_policy_projection(self):
        assert set(ALGORITHMS) == set(WORKLOADS)
        for name, workload in WORKLOADS.items():
            assert ALGORITHMS[name] == workload.policy

    def test_new_workloads_are_registered(self):
        assert WORKLOADS["approx-agreement"].policy is None
        assert not WORKLOADS["approx-agreement"].renaming
        assert WORKLOADS["parallel-retry"].policy is None
        assert WORKLOADS["parallel-retry"].renaming

    def test_unknown_algorithm_still_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            run_renaming("nope", sparse_ids(4))

    def test_every_workload_has_a_round_limit_and_a_way_to_build(self):
        for name, load in WORKLOADS.items():
            assert load.round_limit(8, 7) > 0, name
            # A policy builds balls; every other workload names a builder.
            assert (load.build is None) == (load.policy is not None), name

    def test_round_budgets(self):
        from repro.baselines.approximate_agreement import seeded_rounds

        for load in WORKLOADS.values():
            if load.policy is not None:
                assert load.round_limit(8, 7) == default_round_limit(8, 7) == 62
        assert workload("flood").round_limit(8, 7) == 7 + 8
        aa_rounds = seeded_rounds(8, 7) + 4
        assert workload("approx-agreement").round_limit(8, 7) == aa_rounds
        assert workload("parallel-retry").round_limit(8, 7) == 8 + 8

    def test_lookup_is_the_one_unknown_algorithm_error(self):
        with pytest.raises(ConfigurationError) as error:
            workload("nope")
        assert str(error.value) == (
            f"unknown algorithm 'nope'; choose from {sorted(WORKLOADS)}"
        )

    def test_captured_failure_reports_the_workloads_budget(self):
        # Flooding for t + 1 = 2 rounds under heavy omission hands out a
        # duplicate name; the row reports flooding's budget, t + 8.
        spec = TrialSpec(
            "flood",
            8,
            1,
            AdversarySpec.parse("omission:p=0.5"),
            crash_budget=1,
            capture_errors=True,
        )
        result = run_trial(spec)
        assert result.error.startswith("SpecViolation: uniqueness")
        assert result.rounds == 1 + 8


class TestApproxAgreementWorkload:
    def test_failure_free_reaches_epsilon_agreement(self):
        run = run_renaming("approx-agreement", sparse_ids(16), seed=3)
        values = list(run.names.values())
        assert len(values) == 16
        assert max(values) - min(values) <= 1.0
        assert run.kernel == "reference"

    def test_renaming_check_is_skipped_for_real_valued_decisions(self):
        # check=True is the default; a renaming workload deciding floats
        # would raise SpecViolation here.
        run = run_renaming("approx-agreement", sparse_ids(8), seed=0, check=True)
        assert all(isinstance(v, float) for v in run.names.values())

    def test_crashes_within_budget_keep_the_guarantee(self):
        run = run_renaming(
            "approx-agreement",
            sparse_ids(16),
            seed=3,
            adversary=RandomCrashAdversary(0.1, seed=5),
            crash_budget=4,
        )
        values = list(run.names.values())
        assert run.failures <= 4
        assert max(values) - min(values) <= 1.0

    def test_columnar_pin_rejects_by_name(self):
        with pytest.raises(KernelUnsupported, match="approx-agreement"):
            run_renaming(
                "approx-agreement", sparse_ids(8), seed=0, kernel="columnar"
            )


class TestParallelRetryWorkload:
    def test_failure_free_is_a_tight_renaming(self):
        run = run_renaming("parallel-retry", sparse_ids(16), seed=3)
        names = list(run.names.values())
        assert sorted(set(names)) == names or len(set(names)) == 16
        assert all(0 <= name < 16 for name in names)
        # The paper's point of comparison: the scheme is *fast* when
        # views are consistent.
        assert run.rounds <= 16

    def test_check_renaming_applies(self):
        # The workload is a renaming: the checker runs and passes.
        run_renaming("parallel-retry", sparse_ids(8), seed=1, check=True)

    def test_omission_divergence_breaks_tightness_honestly(self):
        # Silencing two balls through the run makes views diverge —
        # precisely the consistency assumption the paper says crash-prone
        # systems cannot provide.  The checker calls the duplicate.
        with pytest.raises(SpecViolation, match="uniqueness"):
            run_renaming(
                "parallel-retry",
                sparse_ids(16),
                seed=3,
                adversary=TargetedOmissionAdversary(count=2, rounds=(1, 6)),
            )

    def test_seed_changes_the_assignment(self):
        a = run_renaming("parallel-retry", sparse_ids(16), seed=1).names
        b = run_renaming("parallel-retry", sparse_ids(16), seed=2).names
        assert a != b


class TestScenarioMatrixRouting:
    def test_grid_runs_both_workloads_under_fault_adversaries(self):
        matrix = ScenarioMatrix.build(
            ["approx-agreement", "parallel-retry"],
            [8],
            adversaries=["none", "omission:p=0.1,first=2,last=6"],
            trials=2,
            base_seed=5,
            check=False,
        )
        batch = run_batch(matrix.expand())
        assert len(batch.trials) == 8
        assert all(trial.error is None for trial in batch.trials)
        omitted = [
            trial
            for trial in batch.trials
            if trial.spec.adversary.name == "omission"
        ]
        assert any(trial.omissions > 0 for trial in omitted)


class TestApproxAgreementHuntSmoke:
    def test_mixed_family_hunt_runs_on_the_reference_rails(self):
        from repro.search.strategies import HuntConfig, run_hunt

        config = HuntConfig(
            algorithm="approx-agreement",
            n=8,
            objective="rounds",
            budget=24,
            seed=3,
            fault_family="mixed",
        )
        result = run_hunt(config, strategy="hillclimb")
        assert result.best.score >= 1.0
        assert result.best.best_result.error is None
