"""The invariant monitors of :mod:`repro.monitor.invariants`, stacked.

:class:`StackedMonitor` screens every trial of a
``VectorizedCrashEngine`` cell per round in a few NumPy passes and
drops a flagged trial to the scalar :func:`evaluate_round`, so its
verdicts match the per-trial monitors byte for byte.  It lives apart
from the scalar monitors because only the vectorized kernel needs it:
per-trial monitoring never loads NumPy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.lifecycle import BallStatus
from repro.monitor.invariants import STALL_WINDOW, Violation, evaluate_round

_ACTIVE = int(BallStatus.ACTIVE)
_ANNOUNCED = int(BallStatus.ANNOUNCED)


class StackedMonitor:
    """Per-round monitoring of a ``VectorizedCrashEngine``, all trials at
    once.

    A trial's local views are its class rows (``_cpos``/``_cstat``,
    mapped to trials by ``_ctrial``) with a running member — the
    stacked twin of :meth:`ColumnarCrashEngine.monitor_views`.  The
    screens are O(T·n) ufunc passes over decisions and live rows; a
    trial flagged by any screen drops to the scalar
    :func:`evaluate_round` for that round, so the violation strings are
    identical to the scalar monitors'.  A trial whose state freezes for
    :data:`STALL_WINDOW` rounds is reported and stopped (``engine.stopped``),
    where the scalar kernels raise :class:`MonitorViolation`.
    """

    def __init__(self, engine) -> None:
        self.labels = engine.labels
        self.n = engine.n
        self.trials = engine.trials
        from repro.tree.topology import cached_topology

        self.arrays = cached_topology(self.n).arrays()
        self._is_leaf = engine._topo.is_leaf
        self._violations: Dict[int, List[Violation]] = {}
        self._streak = np.zeros(engine.trials, dtype=np.int64)
        #: Trials the progress monitor declared deadlocked.
        self.stalled = np.zeros(engine.trials, dtype=bool)
        #: First round each ball was observed crashed (-1 = never).
        self._crash_round = np.full(engine.trials * engine.n, -1, dtype=np.int64)
        self._trial_of = np.arange(engine.trials * engine.n, dtype=np.int64) // engine.n
        self._prev: Optional[Tuple] = None

    @property
    def deadlocked(self) -> bool:
        return bool(self.stalled.any())

    def violations(self, t: int) -> List[Violation]:
        """Trial ``t``'s findings, in observation order."""
        return list(self._violations.get(t, ()))

    # ------------------------------------------------------------- observing
    def __call__(self, engine, round_no: int, active: "np.ndarray") -> None:
        n = self.n
        T = self.trials
        decision = engine.decision
        crashed = engine.crashed
        newly = crashed & (self._crash_round < 0)
        self._crash_round[newly] = round_no
        # Live views: class rows with at least one running member.
        running = ~crashed & ~engine.halted & (engine.cls_of >= 0)
        live = np.flatnonzero(np.bincount(engine.cls_of[running]))
        pos = engine._cpos[live]
        stat = engine._cstat[live]
        row_trial = engine._ctrial[live]
        flagged = np.zeros(T, dtype=bool)

        def flag(trials_hit: "np.ndarray") -> None:
            flagged[trials_hit] = True

        # Namespace + uniqueness screens over correct decided balls.
        trial_of = self._trial_of
        decided = (decision >= 0) & ~crashed
        flag(trial_of[decided & (decision >= n)])
        keys = trial_of[decided] * n + np.minimum(decision[decided], n - 1)
        dupes = np.flatnonzero(np.bincount(keys, minlength=T * n) > 1)
        flag(dupes // n)

        # Per-view screens: retention, crash-retention, leaf capacity.
        present = pos >= 0
        at_leaf = present & self._is_leaf[np.where(present, pos, 0)]
        announced = stat == _ANNOUNCED
        flag(row_trial[(present & announced & ~at_leaf).any(axis=1)])
        crash_round = self._crash_round.reshape(T, n)[row_trial]
        stale = (
            present
            & (stat == _ACTIVE)
            & (crash_round >= 0)
            & (crash_round < round_no)
        )
        flag(row_trial[stale.any(axis=1)])
        rr, jj = np.nonzero(at_leaf)
        if rr.size:
            M = engine._topo.node_count
            leaf_key = rr * np.int64(M) + pos[rr, jj]
            occupancy = np.bincount(leaf_key, minlength=live.size * M)
            allowance = 1 + np.bincount(
                leaf_key[announced[rr, jj]], minlength=live.size * M
            )
            flag(row_trial[np.flatnonzero(occupancy > allowance) // M])
        flagged &= active

        # Progress: per-trial frozen-state streaks over the scalar
        # monitor's fingerprint (the set of live views, decisions,
        # crashes, running count).  A trial's rows are distinct views,
        # so equal view sets need equal row counts.
        firing = np.zeros(T, dtype=bool)
        dec_t = decision.reshape(T, n)
        crashed_t = crashed.reshape(T, n)
        running_t = engine.running.copy()
        rows_of = np.bincount(row_trial, minlength=T)
        # The row of each single-row trial (others: any of theirs).
        row_at = np.zeros(T, dtype=np.int64)
        row_at[row_trial] = np.arange(live.size)
        if self._prev is not None:
            p_dec, p_crashed, p_running, p_pos, p_stat, p_trial, p_rows, p_at = (
                self._prev
            )
            same = (
                active
                & (running_t > 0)
                & (running_t == p_running)
                & (rows_of == p_rows)
                & (dec_t == p_dec).all(axis=1)
                & (crashed_t == p_crashed).all(axis=1)
            )
            single = np.flatnonzero(same & (rows_of == 1))
            if single.size:
                now = row_at[single]
                was = p_at[single]
                same[single] = (pos[now] == p_pos[was]).all(axis=1) & (
                    stat[now] == p_stat[was]
                ).all(axis=1)
            for t in map(int, np.flatnonzero(same & (rows_of > 1))):
                same[t] = _row_set(pos, stat, row_trial, t) == _row_set(
                    p_pos, p_stat, p_trial, t
                )
            self._streak = np.where(same, self._streak + 1, 0)
            firing = (self._streak == STALL_WINDOW) & ~self.stalled
        self._prev = (
            dec_t.copy(), crashed_t.copy(), running_t, pos, stat, row_trial,
            rows_of, row_at,
        )

        # Flagged trials re-run the scalar predicates for identical
        # attribution/wording (rare by construction: a screen only fires
        # on an actual violation); a stall follows them, as in RunMonitor.
        for t in map(int, np.flatnonzero(flagged | firing)):
            found: List[Violation] = []
            if flagged[t]:
                base = t * n
                rows = np.flatnonzero(row_trial == t)
                trial_crashed = crashed[base : base + n].tolist()
                crash_round = self._crash_round[base : base + n].tolist()
                found = evaluate_round(
                    round_no,
                    self.arrays,
                    self.labels,
                    views=[(pos[r].tolist(), stat[r].tobytes()) for r in rows],
                    decisions=[
                        None if d < 0 else int(d)
                        for d in decision[base : base + n]
                    ],
                    crashed=trial_crashed,
                    crash_rounds={
                        j: r for j, r in enumerate(crash_round) if r >= 0
                    },
                )
            if firing[t]:
                found.append(
                    Violation(
                        "progress",
                        round_no,
                        f"no state change for {STALL_WINDOW} rounds "
                        f"with {int(running_t[t])} ball(s) running",
                    )
                )
            if found:
                self._violations.setdefault(t, []).extend(found)
        if firing.any():
            self.stalled |= firing
            engine.stopped |= firing


def _row_set(
    pos: "np.ndarray", stat: "np.ndarray", row_trial: "np.ndarray", t: int
) -> set:
    """Trial ``t``'s set of live views, as comparable bytes."""
    return {
        (pos[r].tobytes(), stat[r].tobytes())
        for r in np.flatnonzero(row_trial == t)
    }
