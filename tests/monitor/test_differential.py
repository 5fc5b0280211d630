"""Differential monitor suite: identical verdicts on every kernel.

The monitors' contract is that the violation report is a property of the
*run*, not of the engine that produced it: the reference, columnar, and
(where eligible) vectorized kernels must emit byte-identical rendered
reports over the full adversary grid — and monitoring must never change
the run itself (same names, same rounds, same message counts).

Tier 1 covers a small algorithm × adversary × halt-mode × seed grid plus
the PR 3 ghost-leaf crash schedules as end-to-end regressions; the
tier-2 deep grid pushes the same assertions to n = 2^12.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    RandomCrashAdversary,
    SandwichAdversary,
    ScheduledAdversary,
    ScheduledCrash,
)
from repro.core.mt19937 import HAVE_NUMPY
from repro.ids import sparse_ids
from repro.sim.runner import run_renaming

ALGORITHMS = ("balls-into-leaves", "early-terminating", "rank-descent")

#: name -> builder; separate instances per run (adversaries hold state).
ADVERSARIES = {
    "none": lambda: None,
    "random": lambda: RandomCrashAdversary(0.15, seed=77),
    "sandwich": lambda: SandwichAdversary(),
}


def _monitored(algorithm, n, seed, kernel, adversary, halt_on_name, monitor="cheap"):
    run = run_renaming(
        algorithm,
        sparse_ids(n),
        seed=seed,
        kernel=kernel,
        adversary=adversary,
        halt_on_name=halt_on_name,
        monitor=monitor,
    )
    return run


def _report(run):
    return [violation.render() for violation in run.violations]


def _outcome(run):
    return (dict(run.names), run.rounds, run.failures)


class TestDifferentialGrid:
    """Reference vs columnar (vs vectorized) over the adversary grid."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("adversary_name", sorted(ADVERSARIES))
    @pytest.mark.parametrize("halt_on_name", [False, True])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_reports_across_kernels(
        self, algorithm, adversary_name, halt_on_name, seed
    ):
        build = ADVERSARIES[adversary_name]
        n = 16
        reference = _monitored(
            algorithm, n, seed, "reference", build(), halt_on_name
        )
        columnar = _monitored(
            algorithm, n, seed, "columnar", build(), halt_on_name
        )
        assert _report(reference) == _report(columnar)
        assert _report(reference) == []  # the protocol holds
        assert _outcome(reference) == _outcome(columnar)
        if HAVE_NUMPY:
            vectorized = _monitored(
                algorithm, n, seed, "vectorized", build(), halt_on_name
            )
            assert _report(vectorized) == _report(reference)
            assert _outcome(vectorized) == _outcome(reference)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="stacked cells need numpy")
    @pytest.mark.parametrize("adversary", ["random:rate=0.15", "sandwich"])
    @pytest.mark.parametrize("halt_on_name", [False, True])
    def test_monitored_stacked_crash_cell_matches_per_trial_kernels(
        self, adversary, halt_on_name
    ):
        from dataclasses import replace

        from repro.sim.batch import AdversarySpec, TrialSpec, run_batch, run_trial

        specs = [
            TrialSpec(
                algorithm="balls-into-leaves",
                n=16,
                seed=seed,
                adversary=AdversarySpec.parse(adversary),
                halt_on_name=halt_on_name,
                monitor="cheap",
                kernel="vectorized",
            )
            for seed in range(4)
        ]
        stacked = run_batch(specs).trials
        assert {trial.kernel for trial in stacked} == {"vectorized"}
        for kernel in ("columnar", "reference"):
            per_trial = [run_trial(replace(spec, kernel=kernel)) for spec in specs]
            for want, got in zip(per_trial, stacked):
                row, expected = got.to_row(), want.to_row()
                del row["kernel"], expected["kernel"]
                assert row == expected

    @pytest.mark.parametrize("kernel", ["reference", "columnar"])
    def test_monitoring_does_not_change_the_run(self, kernel):
        n, seed = 16, 9
        adversary = RandomCrashAdversary(0.2, seed=5)
        monitored = _monitored(
            "balls-into-leaves", n, seed, kernel, adversary, False
        )
        bare = run_renaming(
            "balls-into-leaves",
            sparse_ids(n),
            seed=seed,
            kernel=kernel,
            adversary=RandomCrashAdversary(0.2, seed=5),
        )
        assert monitored.monitor == "cheap" and bare.monitor == "off"
        assert _outcome(monitored) == _outcome(bare)
        assert (
            monitored.metrics.total_messages_sent
            == bare.metrics.total_messages_sent
        )

    def test_full_monitor_agrees_with_cheap_on_reference(self):
        n, seed = 16, 4
        cheap = _monitored("balls-into-leaves", n, seed, "reference", None, False)
        full = _monitored(
            "balls-into-leaves", n, seed, "reference", None, False, monitor="full"
        )
        assert full.monitor == "full"
        assert _report(cheap) == _report(full) == []
        assert _outcome(cheap) == _outcome(full)


class TestGhostScheduleRegressions:
    """The PR 3 mid-path-crash ghost schedules, monitored end to end.

    These schedules once deadlocked (the ghost reserved a survivor's
    leaf); the fix makes them terminate cleanly, so the monitors must
    stay silent — on both kernels, with identical reports.
    """

    CASES = [
        # (n, seed, victim index, receiver indices)
        pytest.param(9, 1, 0, [1], id="n9-original-hypothesis-find"),
        pytest.param(5, 1, 0, [1], id="n5-smallest"),
        pytest.param(7, 5, 1, [2, 4], id="n7-two-receivers"),
        pytest.param(13, 5, 2, [1, 3], id="n13-later-victim"),
    ]

    @pytest.mark.parametrize("n,seed,victim,receivers", CASES)
    def test_ghost_schedule_runs_clean_under_monitors(
        self, n, seed, victim, receivers
    ):
        ids = sparse_ids(n)

        def schedule():
            return ScheduledAdversary(
                [
                    ScheduledCrash(
                        2, ids[victim], receivers=[ids[r] for r in receivers]
                    )
                ]
            )

        runs = {}
        for kernel in ("reference", "columnar"):
            runs[kernel] = run_renaming(
                "balls-into-leaves",
                ids,
                seed=seed,
                adversary=schedule(),
                halt_on_name=True,
                kernel=kernel,
                check_invariants=True,
            )
        reference, columnar = runs["reference"], runs["columnar"]
        assert reference.monitor == "cheap" == columnar.monitor
        assert _report(reference) == _report(columnar) == []
        names = list(reference.names.values())
        assert len(names) == n - 1 and len(set(names)) == n - 1
        assert _outcome(reference) == _outcome(columnar)


@pytest.mark.tier2
class TestDeepDifferentialGrid:
    """The same contract at scale: n up to 2^12."""

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("halt_on_name", [False, True])
    def test_failure_free_deep(self, n, halt_on_name):
        columnar = _monitored(
            "balls-into-leaves", n, 1, "columnar", None, halt_on_name
        )
        assert _report(columnar) == []
        if HAVE_NUMPY:
            vectorized = _monitored(
                "balls-into-leaves", n, 1, "vectorized", None, halt_on_name
            )
            assert _report(vectorized) == []
            assert _outcome(vectorized) == _outcome(columnar)

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize(
        "adversary_name", ["random", "sandwich"]
    )
    def test_adversarial_deep(self, n, adversary_name):
        build = ADVERSARIES[adversary_name]
        reference = _monitored(
            "balls-into-leaves", n, 2, "reference", build(), True
        )
        columnar = _monitored(
            "balls-into-leaves", n, 2, "columnar", build(), True
        )
        assert _report(reference) == _report(columnar) == []
        assert _outcome(reference) == _outcome(columnar)


class TestOmissionSilencedAnnotation:
    """Omission faults: honest uniqueness verdicts, identical on both
    engines, annotated with the silenced-not-crashed provenance.

    A targeted omission adversary silences two balls through the first
    phases: their peers purge them (as if crashed) and reuse their
    names, while the silenced balls decide inside their own stale views.
    The resulting duplicate names are *expected* injected degradation —
    the monitor must report them (no suppression) and must attribute
    them to omission so sweeps can separate injected faults from
    algorithmic bugs.
    """

    def _run(self, kernel, monitor="cheap"):
        from repro.adversary import TargetedOmissionAdversary
        from repro.ids import sparse_ids
        from repro.sim.runner import run_renaming

        # check=False: the injected duplicate names are the point; the
        # monitor (not the post-hoc checker) is under test here.
        return run_renaming(
            "balls-into-leaves",
            sparse_ids(8),
            seed=0,
            kernel=kernel,
            adversary=TargetedOmissionAdversary(count=2, rounds=(1, 6)),
            halt_on_name=True,
            monitor=monitor,
            check=False,
        )

    def test_reports_match_and_carry_the_annotation(self):
        reference = self._run("reference")
        columnar = self._run("columnar")
        report = _report(reference)
        assert report == _report(columnar)
        assert report, "the silenced cell must surface uniqueness findings"
        assert any("silenced by omission" in line for line in report)
        assert any("not crashed" in line for line in report)
        assert _outcome(reference) == _outcome(columnar)

    def test_monitoring_does_not_change_the_run(self):
        unmonitored = self._run("columnar", monitor="off")
        assert _outcome(unmonitored) == _outcome(self._run("columnar"))
