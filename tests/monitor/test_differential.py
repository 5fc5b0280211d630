"""Monitor reports beyond plain kernel equality.

The monitors' contract is that the violation report is a property of the
*run*, not of the engine that produced it.  That the reference,
columnar and vectorized kernels render identical reports, and that
monitoring never changes the run, is the differential oracle's job
(``tests/test_oracle.py``, which also pins the mined ghost-leaf crash
schedules).  This file keeps the full monitor agreeing with the cheap
one, and the omission provenance annotation on uniqueness findings.
"""

from __future__ import annotations

from repro.ids import sparse_ids
from repro.sim.runner import run_renaming


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
    """The full monitor against the cheap one, on the reference kernel."""

    def test_full_monitor_agrees_with_cheap_on_reference(self):
        n, seed = 16, 4
        cheap = _monitored("balls-into-leaves", n, seed, "reference", None, False)
        full = _monitored(
            "balls-into-leaves", n, seed, "reference", None, False, monitor="full"
        )
        assert full.monitor == "full"
        assert _report(cheap) == _report(full) == []
        assert _outcome(cheap) == _outcome(full)


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
