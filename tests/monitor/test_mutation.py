"""Mutation suite: every monitor fires on its seeded violation.

A monitor that never fires is indistinguishable from no monitor.  Each
test here corrupts a *real* engine state into one specific known-bad
shape (duplicate name, over-capacity leaf, announced ball off its leaf,
crashed-ball retention, frozen progress) and asserts the corresponding
invariant — and only it — fires, with correct round/ball/node
attribution.  The wedged-engine tests drive the corruption through the
full ``run_renaming`` / batch stack to pin the abort and capture paths.
"""

from __future__ import annotations

import pytest

from repro.core.columnar import ColumnarCrashEngine
from repro.core.lifecycle import BallStatus
from repro.core.mt19937 import HAVE_NUMPY
from repro.adversary import RandomCrashAdversary
from repro.errors import MonitorViolation
from repro.ids import sparse_ids
from repro.monitor.invariants import (
    STALL_WINDOW,
    RunMonitor,
    observe_crash_engine,
)
from repro.sim.batch import run_cell, run_trial
from repro.sim.runner import run_renaming
from repro.sim.specs import AdversarySpec, TrialSpec
from repro.tree.topology import cached_topology

N = 16


def fresh_engine(halt_on_name=False, seed=3):
    """A failure-free run: the crash engine with no adversary."""
    ids = sparse_ids(N)
    engine = ColumnarCrashEngine(
        ids, seed=seed, policy="random", halt_on_name=halt_on_name
    )
    return ids, engine


def shared_view(engine):
    """The single class view every running ball of a failure-free run shares."""
    (view,) = {id(cv): cv for cv in engine._class_of}.values()
    return view


def fresh_monitor(ids, halt_on_name=False):
    return RunMonitor(
        sorted(ids), cached_topology(N).arrays(), halt_on_name=halt_on_name
    )


def run_to_completion(engine):
    round_no = 0
    while engine.running_count:
        round_no += 1
        engine.step(round_no)
    return round_no


def leaf_and_inner(n=N):
    arrays = cached_topology(n).arrays()
    leaves = [i for i, span in enumerate(arrays.span) if span == 1]
    inner = [i for i, span in enumerate(arrays.span) if span > 1]
    return leaves, inner


class TestSeededColumnarMutations:
    def test_duplicate_name_fires_uniqueness(self):
        ids, engine = fresh_engine()
        last = run_to_completion(engine)
        engine.decision[4] = engine.decision[2]
        monitor = fresh_monitor(ids)
        observe_crash_engine(monitor, engine, last)
        assert [v.invariant for v in monitor.violations] == ["uniqueness"]
        violation = monitor.violations[0]
        assert violation.round_no == last and violation.ball == 4
        labels = sorted(ids)
        assert repr(labels[2]) in violation.detail
        assert repr(labels[4]) in violation.detail

    def test_out_of_range_name_fires_namespace(self):
        ids, engine = fresh_engine()
        last = run_to_completion(engine)
        engine.decision[0] = N + 7
        monitor = fresh_monitor(ids)
        observe_crash_engine(monitor, engine, last)
        assert [v.invariant for v in monitor.violations] == ["namespace"]
        assert monitor.violations[0].ball == 0
        assert f"outside 0..{N - 1}" in monitor.violations[0].detail

    def test_over_capacity_leaf_fires_leaf_capacity(self):
        ids, engine = fresh_engine()
        engine.step(1)
        engine.step(2)
        leaves, _ = leaf_and_inner()
        view = shared_view(engine)
        view.pos[0] = leaves[0]
        view.pos[1] = leaves[0]
        monitor = fresh_monitor(ids)
        observe_crash_engine(monitor, engine, 2)
        found = [v for v in monitor.violations if v.invariant == "leaf-capacity"]
        assert len(found) == 1
        assert found[0].node == leaves[0] and found[0].round_no == 2
        # At least the two teleported balls (plus any legitimate tenant).
        assert f"leaf {leaves[0]} holds" in found[0].detail
        assert "(0 announced)" in found[0].detail

    def test_announced_ball_off_its_leaf_fires_retention(self):
        ids, engine = fresh_engine(halt_on_name=True)
        engine.step(1)
        engine.step(2)
        _, inner = leaf_and_inner()
        view = shared_view(engine)
        view.status[3] = int(BallStatus.ANNOUNCED)
        view.pos[3] = inner[0]
        monitor = fresh_monitor(ids, halt_on_name=True)
        observe_crash_engine(monitor, engine, 2)
        found = [v for v in monitor.violations if v.invariant == "retention"]
        assert len(found) == 1
        assert found[0].ball == 3 and found[0].node == inner[0]

    def test_crashed_ball_retention_fires_after_deadline(self):
        ids = sparse_ids(N)
        engine = ColumnarCrashEngine(
            ids,
            seed=5,
            policy="random",
            adversary=RandomCrashAdversary(0.0, seed=1),
        )
        engine.step(1)
        engine.step(2)
        # Forge a crash the views never processed: the ball stays ACTIVE
        # in every survivor's view past the purge deadline.
        victim = 2
        engine.crashed[victim] = True
        monitor = fresh_monitor(ids)
        observe_crash_engine(monitor, engine, 2)  # deadline round: silent
        assert monitor.violations == []
        observe_crash_engine(monitor, engine, 3)
        found = [
            v for v in monitor.violations if v.invariant == "crash-retention"
        ]
        assert found, monitor.report()
        assert all(v.ball == victim for v in found)
        assert "crashed in round 2" in found[0].detail

    def test_frozen_engine_fires_progress(self):
        ids, engine = fresh_engine()
        engine.step(1)
        engine.step(2)
        assert engine.running_count > 0
        monitor = fresh_monitor(ids)
        # The engine stops being stepped: its observable state freezes
        # with balls still running — the monitor must call the deadlock
        # instead of spinning to the round limit.
        for round_no in range(2, 2 + STALL_WINDOW + 2):
            observe_crash_engine(monitor, engine, round_no)
        assert monitor.deadlocked
        stalls = [v for v in monitor.violations if v.invariant == "progress"]
        assert len(stalls) == 1
        assert f"no state change for {STALL_WINDOW} rounds" in stalls[0].detail


WEDGE_ROUND = 2


def _wedged(engine_class):
    """``engine_class`` whose balls stop moving after ``WEDGE_ROUND``."""

    class Wedged(engine_class):
        def step(self, round_no):
            if round_no > WEDGE_ROUND:
                return
            super().step(round_no)

    return Wedged


#: kernel -> the engine class it drives, as a monkeypatch target.
ENGINES = {
    "columnar": "repro.core.columnar.ColumnarCrashEngine",
    "vectorized": "repro.core.vectorized.VectorizedCrashEngine",
}
KERNELS = [
    "columnar",
    pytest.param(
        "vectorized",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy"),
    ),
]


class TestEndToEndAbort:
    """Corruption surfaces through the full runner/batch stack, per-trial
    and stacked alike."""

    def _wedge(self, monkeypatch, kernel):
        import importlib

        module, _, name = ENGINES[kernel].rpartition(".")
        engine_class = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(ENGINES[kernel], _wedged(engine_class))

    def _spec(self, kernel, seed=3, **kwargs):
        return TrialSpec(
            algorithm="balls-into-leaves",
            n=N,
            seed=seed,
            adversary=AdversarySpec(),
            kernel=kernel,
            monitor="cheap",
            **kwargs,
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wedged_run_raises_monitor_violation(self, monkeypatch, kernel):
        self._wedge(monkeypatch, kernel)
        with pytest.raises(MonitorViolation) as caught:
            run_renaming(
                "balls-into-leaves",
                sparse_ids(N),
                seed=3,
                kernel=kernel,
                monitor="cheap",
            )
        assert any(
            v.invariant == "progress" for v in caught.value.violations
        )
        assert "[progress]" in str(caught.value)
        assert f"round {WEDGE_ROUND + STALL_WINDOW} [progress]" in str(
            caught.value
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_unmonitored_wedged_run_spins_to_the_round_limit(
        self, monkeypatch, kernel
    ):
        # Without the monitor the same wedge burns the whole round
        # budget — the "silent spin" the progress monitor exists to end.
        from repro.errors import RoundLimitExceeded

        self._wedge(monkeypatch, kernel)
        with pytest.raises(RoundLimitExceeded):
            run_renaming(
                "balls-into-leaves", sparse_ids(N), seed=3, kernel=kernel
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_captures_violations_as_data(self, monkeypatch, kernel):
        self._wedge(monkeypatch, kernel)
        result = run_trial(self._spec(kernel, capture_errors=True))
        assert result.error is not None
        assert result.error.startswith("MonitorViolation: ")
        assert result.monitor == "cheap"
        assert any("[progress]" in line for line in result.violations)
        row = result.to_row()
        assert row["monitor"] == "cheap"
        assert row["violations"] == list(result.violations)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_stalled_stacked_trial_aborts_like_a_per_trial_one(
        self, monkeypatch
    ):
        # A wedged stack stops each stalled trial at the stall window and
        # surfaces the per-trial MonitorViolation: raised without
        # capture_errors, else as run_trial's exact error row.
        self._wedge(monkeypatch, "vectorized")
        specs = [
            self._spec("vectorized", seed=seed, capture_errors=True)
            for seed in (3, 4, 5)
        ]
        stacked = [result.to_row() for result in run_cell(specs)]
        assert stacked == [run_trial(spec).to_row() for spec in specs]
        assert all(row["error"].startswith("MonitorViolation") for row in stacked)
        with pytest.raises(MonitorViolation) as caught:
            run_cell([self._spec("vectorized", seed=seed) for seed in (3, 4)])
        assert "[progress]" in str(caught.value)
