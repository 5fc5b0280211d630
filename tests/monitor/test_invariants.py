"""Unit tests of the columnar invariant monitors.

Every predicate of :mod:`repro.monitor.invariants` is exercised directly
on synthetic flat-array states — one test per invariant, plus the
progress/deadlock fingerprint machinery and the vectorized
:class:`StackedMonitor`'s parity with the scalar ``evaluate_round``,
including a stacked trial split into two view classes.
"""

from __future__ import annotations

import pytest

from repro.core.lifecycle import BallStatus
from repro.core.mt19937 import HAVE_NUMPY
from repro.errors import ConfigurationError
from repro.monitor.invariants import (
    STALL_WINDOW,
    RunMonitor,
    Violation,
    evaluate_round,
)
from repro.sim.kernel import MONITOR_MODES, check_monitor_mode
from repro.tree.topology import cached_topology

ACTIVE = int(BallStatus.ACTIVE)
ANNOUNCED = int(BallStatus.ANNOUNCED)


def arrays_for(n):
    return cached_topology(n).arrays()


def leaves_of(arrays):
    return [i for i, span in enumerate(arrays.span) if span == 1]


def inner_of(arrays):
    return [i for i, span in enumerate(arrays.span) if span > 1]


class TestMonitorModes:
    def test_modes_tuple(self):
        assert MONITOR_MODES == ("off", "cheap", "full")

    @pytest.mark.parametrize("mode", MONITOR_MODES)
    def test_valid_modes_pass_through(self, mode):
        assert check_monitor_mode(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            check_monitor_mode("paranoid")


class TestViolationRecord:
    def test_render_is_the_jsonl_form(self):
        violation = Violation("uniqueness", 5, "balls 'a' and 'b' clash")
        assert violation.render() == "round 5 [uniqueness] balls 'a' and 'b' clash"

    def test_sort_key_orders_by_round_then_invariant(self):
        a = Violation("uniqueness", 3, "z", ball=0)
        b = Violation("namespace", 3, "a", ball=1)
        c = Violation("namespace", 2, "late", ball=9)
        ordered = sorted([a, b, c], key=Violation.sort_key)
        assert ordered == [c, b, a]


class TestEvaluateRound:
    """One synthetic flat-array state per predicate."""

    N = 4

    def setup_method(self):
        self.arrays = arrays_for(self.N)
        self.labels = [f"ball{j}" for j in range(self.N)]
        self.leaves = leaves_of(self.arrays)
        self.inner = inner_of(self.arrays)

    def _eval(self, **kwargs):
        kwargs.setdefault("views", [])
        kwargs.setdefault("decisions", [None] * self.N)
        return evaluate_round(7, self.arrays, self.labels, **kwargs)

    def test_clean_state_is_silent(self):
        pos = [self.leaves[j] for j in range(self.N)]
        found = self._eval(
            views=[(pos, bytes(self.N))],
            decisions=[0, 1, 2, 3],
        )
        assert found == []

    def test_namespace_catches_out_of_range_name(self):
        found = self._eval(decisions=[0, self.N + 2, None, None])
        assert [v.invariant for v in found] == ["namespace"]
        assert found[0].ball == 1
        assert f"name {self.N + 2} outside 0..{self.N - 1}" in found[0].detail
        assert "ball1" in found[0].detail

    def test_uniqueness_catches_duplicate_name(self):
        found = self._eval(decisions=[2, None, 2, None])
        assert [v.invariant for v in found] == ["uniqueness"]
        # Attribution points at the second claimant; both labels named.
        assert found[0].ball == 2
        assert "'ball0'" in found[0].detail and "'ball2'" in found[0].detail

    def test_crashed_balls_decisions_are_ignored(self):
        found = self._eval(
            decisions=[2, 2, self.N + 9, None],
            crashed=[False, True, True, False],
        )
        assert found == []

    def test_leaf_capacity_catches_two_active_balls(self):
        leaf = self.leaves[0]
        pos = [leaf, leaf, -1, -1]
        found = self._eval(views=[(pos, bytes(self.N))])
        assert [v.invariant for v in found] == ["leaf-capacity"]
        assert found[0].node == leaf
        assert f"leaf {leaf} holds 2 balls (0 announced)" in found[0].detail

    def test_announced_terminators_extend_the_allowance(self):
        leaf = self.leaves[1]
        pos = [leaf, leaf, leaf, -1]
        status = bytes([ACTIVE, ANNOUNCED, ANNOUNCED, ACTIVE])
        assert self._eval(views=[(pos, status)]) == []
        # A second ACTIVE ball breaks the headroom rule again.
        pos = [leaf, leaf, leaf, leaf]
        status = bytes([ACTIVE, ANNOUNCED, ANNOUNCED, ACTIVE])
        found = self._eval(views=[(pos, status)])
        assert [v.invariant for v in found] == ["leaf-capacity"]
        assert "holds 4 balls (2 announced)" in found[0].detail

    def test_retention_catches_announced_at_inner_node(self):
        node = self.inner[0]
        pos = [node, -1, -1, -1]
        status = bytes([ANNOUNCED, ACTIVE, ACTIVE, ACTIVE])
        found = self._eval(views=[(pos, status)])
        assert [v.invariant for v in found] == ["retention"]
        assert found[0].ball == 0 and found[0].node == node

    def test_crash_retention_fires_after_the_purge_deadline(self):
        leaf = self.leaves[2]
        pos = [leaf, -1, -1, -1]
        view = (pos, bytes(self.N))
        crashed = [True, False, False, False]
        # Observed crashed this very round: still within the deadline.
        assert (
            self._eval(views=[view], crashed=crashed, crash_rounds={0: 7})
            == []
        )
        found = self._eval(views=[view], crashed=crashed, crash_rounds={0: 3})
        assert [v.invariant for v in found] == ["crash-retention"]
        assert "crashed in round 3" in found[0].detail

    def test_views_deduplicate_by_content(self):
        leaf = self.leaves[0]
        pos = [leaf, leaf, -1, -1]
        view = (pos, bytes(self.N))
        found = self._eval(views=[view, (list(pos), bytes(self.N)), view])
        assert len(found) == 1

    def test_findings_come_out_sorted(self):
        leaf = self.leaves[0]
        pos = [leaf, leaf, -1, -1]
        found = self._eval(
            views=[(pos, bytes(self.N))],
            decisions=[1, 1, self.N + 5, None],
        )
        assert [v.invariant for v in found] == [
            "leaf-capacity",
            "namespace",
            "uniqueness",
        ]
        assert found == sorted(found, key=Violation.sort_key)


class TestRunMonitorProgress:
    N = 4

    def _monitor(self, **kwargs):
        return RunMonitor(
            [f"ball{j}" for j in range(self.N)], arrays_for(self.N), **kwargs
        )

    def _frozen_observation(self, monitor, round_no, running=2):
        arrays = monitor.arrays
        leaf = leaves_of(arrays)[0]
        pos = [leaf, -1, -1, -1]
        return monitor.observe(
            round_no,
            views=[(pos, bytes(self.N))],
            decisions=[None] * self.N,
            running=running,
        )

    def test_deadlock_latches_after_the_stall_window(self):
        monitor = self._monitor()
        for round_no in range(1, STALL_WINDOW + 1):
            self._frozen_observation(monitor, round_no)
            assert not monitor.deadlocked
        found = self._frozen_observation(monitor, STALL_WINDOW + 1)
        assert monitor.deadlocked
        assert [v.invariant for v in found] == ["progress"]
        assert (
            f"no state change for {STALL_WINDOW} rounds with 2 ball(s) "
            "running" in found[0].detail
        )
        # The stall is reported once, not once per further frozen round.
        self._frozen_observation(monitor, STALL_WINDOW + 2)
        assert sum(v.invariant == "progress" for v in monitor.violations) == 1

    def test_no_stall_without_running_balls(self):
        monitor = self._monitor()
        for round_no in range(1, 3 * STALL_WINDOW):
            self._frozen_observation(monitor, round_no, running=0)
        assert not monitor.deadlocked

    def test_any_state_change_resets_the_streak(self):
        monitor = self._monitor()
        arrays = monitor.arrays
        leaves = leaves_of(arrays)
        for round_no in range(1, 4 * STALL_WINDOW):
            # Alternate between two distinct states: never a fixed point.
            leaf = leaves[round_no % 2]
            monitor.observe(
                round_no,
                views=[([leaf, -1, -1, -1], bytes(self.N))],
                decisions=[None] * self.N,
                running=1,
            )
        assert not monitor.deadlocked

    def test_crash_round_attribution_uses_first_observation(self):
        monitor = self._monitor()
        leaf = leaves_of(monitor.arrays)[0]
        crashed = [True, False, False, False]
        view = ([leaf, -1, -1, -1], bytes(self.N))
        monitor.observe(
            5, views=[view], decisions=[None] * self.N, crashed=crashed
        )
        found = monitor.observe(
            7, views=[view], decisions=[None] * self.N, crashed=crashed
        )
        assert [v.invariant for v in found] == ["crash-retention"]
        assert "crashed in round 5" in found[0].detail

    def test_report_renders_every_finding(self):
        monitor = self._monitor()
        monitor.observe(
            3, views=[], decisions=[0, 0, None, None]
        )
        assert monitor.report() == [v.render() for v in monitor.violations]
        assert monitor.report()[0].startswith("round 3 [uniqueness]")


@pytest.mark.skipif(not HAVE_NUMPY, reason="vectorized engine needs numpy")
class TestStackedMonitorParity:
    """The vectorized screens produce the scalar monitors' verdicts."""

    def _engine(self, n=8, trials=4, halt_on_name=False):
        from repro.core.vectorized import VectorizedCrashEngine
        from repro.sim.rng import derive_seed

        seeds = [derive_seed(11, "stacked", i) for i in range(trials)]
        return VectorizedCrashEngine(
            list(range(n)), seeds, halt_on_name=halt_on_name
        )

    def _observe(self, engine, round_no):
        import numpy as np

        from repro.monitor.stacked import StackedMonitor

        monitor = StackedMonitor(engine)
        monitor(engine, round_no, np.ones(engine.trials, dtype=bool))
        return monitor

    @staticmethod
    def _row(engine, t):
        """Trial ``t``'s class row (one per trial, failure-free)."""
        import numpy as np

        (row,) = np.flatnonzero(engine._ctrial == t)
        return int(row)

    @staticmethod
    def _split(engine, t, balls):
        """Forge a second class for trial ``t``: ``balls`` move onto a copy
        of its row.  Returns the new row index."""
        import numpy as np

        row = TestStackedMonitorParity._row(engine, t)
        new = engine._crows
        for name in ("_cpos", "_cstat", "_ccount"):
            matrix = getattr(engine, name)
            setattr(engine, name, np.vstack([matrix, matrix[row : row + 1]]))
        for name in ("_cpresent", "_cleaf", "_ctrial"):
            column = getattr(engine, name)
            setattr(engine, name, np.append(column, column[row]))
        engine._crows += 1
        engine.cls_of[[t * engine.n + j for j in balls]] = new
        return new

    def test_clean_runs_report_nothing(self):
        from repro.monitor.stacked import StackedMonitor

        engine = self._engine()
        monitor = StackedMonitor(engine)
        engine.run(observer=monitor)
        assert not monitor.deadlocked
        for t in range(engine.trials):
            assert monitor.violations(t) == []

    def test_duplicate_decision_flags_only_the_corrupt_trial(self):
        engine = self._engine()
        engine.run()
        n, corrupt = engine.n, 2
        base = corrupt * n
        # Forge a duplicate decided name inside one trial.
        engine.decision[base + 1] = engine.decision[base + 0]
        monitor = self._observe(engine, 9)
        for t in range(engine.trials):
            found = monitor.violations(t)
            if t != corrupt:
                assert found == []
        found = monitor.violations(corrupt)
        assert [v.invariant for v in found] == ["uniqueness"]
        # String-identical to the scalar monitor on the same state.
        scalar = evaluate_round(
            9,
            cached_topology(n).arrays(),
            engine.labels,
            views=[],
            decisions=[
                None if d < 0 else int(d)
                for d in engine.decision[base : base + n]
            ],
        )
        assert [v.render() for v in found] == [v.render() for v in scalar]

    def test_out_of_range_decision_flags_namespace(self):
        engine = self._engine()
        engine.run()
        engine.decision[0] = engine.n + 3
        monitor = self._observe(engine, 9)
        found = monitor.violations(0)
        assert [v.invariant for v in found] == ["namespace"]

    def test_over_capacity_leaf_flags_the_trial(self):
        import numpy as np

        engine = self._engine()
        engine.run(stop_after=2)
        # Teleport two balls of trial 1 onto the same leaf.
        leaf = int(np.flatnonzero(engine._topo.is_leaf)[0])
        row = self._row(engine, 1)
        engine._cpos[row, 0] = leaf
        engine._cpos[row, 1] = leaf
        monitor = self._observe(engine, 3)
        found = monitor.violations(1)
        assert "leaf-capacity" in [v.invariant for v in found]
        assert monitor.violations(0) == []

    def test_two_class_trial_attributes_the_breaking_row(self):
        import numpy as np

        engine = self._engine(halt_on_name=True)
        engine.run(stop_after=2)
        n, t = engine.n, 2
        # Trial 2 splits into two classes; only the second one's view
        # breaks leaf capacity and parks an announced ball off its leaf.
        forged = self._split(engine, t, balls=range(n // 2, n))
        leaf = int(np.flatnonzero(engine._topo.is_leaf)[-1])
        inner = int(np.flatnonzero(~engine._topo.is_leaf)[0])
        engine._cpos[forged, 0] = leaf
        engine._cpos[forged, 1] = leaf
        engine._cpos[forged, 5] = inner
        engine._cstat[forged, 5] = ANNOUNCED
        monitor = self._observe(engine, 3)
        for other in range(engine.trials):
            if other != t:
                assert monitor.violations(other) == []
        found = monitor.violations(t)
        assert sorted(v.invariant for v in found) == [
            "leaf-capacity",
            "retention",
        ]
        (retention,) = [v for v in found if v.invariant == "retention"]
        assert retention.ball == 5 and retention.node == inner
        (capacity,) = [v for v in found if v.invariant == "leaf-capacity"]
        assert capacity.node == leaf
        # String-identical to the scalar monitor over both class views.
        rows = [self._row_of(engine, t, 0), forged]
        scalar = evaluate_round(
            3,
            cached_topology(n).arrays(),
            engine.labels,
            views=[
                (engine._cpos[r].tolist(), engine._cstat[r].tobytes())
                for r in rows
            ],
            decisions=[None] * n,
            crashed=[False] * n,
            crash_rounds={},
        )
        assert [v.render() for v in found] == [v.render() for v in scalar]

    @staticmethod
    def _row_of(engine, t, j):
        return int(engine.cls_of[t * engine.n + j])

    def test_frozen_trial_reports_progress_stall(self):
        import numpy as np

        from repro.monitor.stacked import StackedMonitor

        engine = self._engine(trials=2)
        engine.run(stop_after=2)
        # Wedge both trials: feed the monitor the same running state.
        monitor = StackedMonitor(engine)
        active = np.ones(engine.trials, dtype=bool)
        for round_no in range(3, 3 + STALL_WINDOW + 1):
            monitor(engine, round_no, active)
        assert monitor.deadlocked
        assert engine.stopped.all()
        for t in range(engine.trials):
            stalls = [
                v for v in monitor.violations(t) if v.invariant == "progress"
            ]
            assert len(stalls) == 1
            assert f"no state change for {STALL_WINDOW} rounds" in stalls[0].detail


class TestSilencedAnnotation:
    """Uniqueness findings name omission-silenced claimants."""

    N = 4

    def setup_method(self):
        self.arrays = arrays_for(self.N)
        self.labels = [f"ball{j}" for j in range(self.N)]

    def test_evaluate_round_annotates_silenced_claimants(self):
        found = evaluate_round(
            7,
            self.arrays,
            self.labels,
            views=[],
            decisions=[2, None, 2, None],
            silenced_rounds={0: 3},
        )
        assert [v.invariant for v in found] == ["uniqueness"]
        assert (
            "(ball 'ball0' silenced by omission since round 3, not crashed)"
            in found[0].detail
        )

    def test_unsilenced_duplicates_are_unannotated(self):
        found = evaluate_round(
            7,
            self.arrays,
            self.labels,
            views=[],
            decisions=[2, None, 2, None],
            silenced_rounds={1: 3},
        )
        assert "silenced" not in found[0].detail

    def test_run_monitor_threads_silenced_rounds(self):
        monitor = RunMonitor(self.labels, self.arrays)
        monitor.observe(
            1,
            views=[],
            decisions=[None] * self.N,
            silenced={2: 1},
            running=self.N,
        )
        found = monitor.observe(
            2,
            views=[],
            decisions=[0, None, 0, None],
            running=2,
        )
        # The silenced map is sticky: round 1's observation annotates
        # round 2's finding.
        assert "silenced by omission since round 1" in found[0].detail
