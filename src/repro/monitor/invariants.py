"""The paper's invariants as cheap flat-array predicates, always on.

The reference engine can instrument every movement step
(``check_invariants=True`` walks the whole subtree audit of
:func:`repro.core.movement.assert_capacity_invariant`), but that forces
the slow engine, so every fast-path sweep used to run blind.  This
module reformulates the safety/liveness conditions as per-round
predicates over the columnar state the fast engines already expose —
cheap enough to leave enabled in production sweeps (``monitor="cheap"``):

* **namespace** — every decided name lies in ``0..n-1``;
* **uniqueness** — no two correct balls decide the same name;
* **leaf-capacity** — in every local view, a leaf holds at most one ball
  plus its announced (retained) terminators, the per-leaf core of the
  headroom rule of :func:`~repro.core.movement.assert_capacity_invariant`;
* **retention** — an ``ANNOUNCED`` ball (the
  :class:`~repro.core.lifecycle.BallStatus` lifecycle) only ever holds a
  leaf, never an inner node;
* **crash-retention** — a crashed ball that never announced is purged
  from every view by the end of the round after its crash (ACTIVE
  silence means removal; announced terminators are retained forever);
* **progress** — the run's observable state (views, decisions, crashes)
  must not freeze while balls are still running.  A frozen full phase
  consumes no RNG draws (a consumed draw implies a ball had capacity
  below it and the first such ball in ``<R`` order moves), so the state
  is a deterministic fixed point: a true deadlock, reported after
  :data:`STALL_WINDOW` identical rounds instead of a silent spin to the
  round limit.

Verdicts are engine-independent: the same :class:`Violation` records —
round, invariant, ball/node attribution, message — come out of the
reference, columnar, and vectorized kernels (asserted by the
differential monitor suite), so jsonl rows can be compared across
kernels byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.lifecycle import BallStatus
from repro.core.mt19937 import HAVE_NUMPY
from repro.errors import MonitorViolation

if HAVE_NUMPY:
    import numpy as np

#: Identical consecutive fingerprints before the progress monitor calls
#: a deadlock.  Any full frozen phase (two rounds) is already a fixed
#: point; eight rounds is a four-phase margin against transient
#: re-merging of diverged views.
STALL_WINDOW = 8

_ACTIVE = int(BallStatus.ACTIVE)
_ANNOUNCED = int(BallStatus.ANNOUNCED)


@dataclass(frozen=True)
class Violation:
    """One violated invariant, with round and ball/node attribution."""

    invariant: str
    round_no: int
    detail: str
    #: Label rank of the offending ball (None for view-level findings).
    ball: Optional[int] = None
    #: Node index in the run's :class:`~repro.tree.arrays.TopologyArrays`.
    node: Optional[int] = None

    def render(self) -> str:
        """The jsonl/report form, identical across kernels."""
        return f"round {self.round_no} [{self.invariant}] {self.detail}"

    def sort_key(self) -> Tuple:
        return (
            self.round_no,
            self.invariant,
            -1 if self.ball is None else self.ball,
            -1 if self.node is None else self.node,
            self.detail,
        )


#: One local view in monitor form: positions by label rank (-1 = the
#: ball is absent from this view) and lifecycle bytes (None = all
#: ACTIVE).  The flat-array twin of ``LocalTreeView.state_set()``.
MonitorView = Tuple[Sequence[int], Optional[bytes]]


def _view_key(view: MonitorView) -> Tuple[Tuple[int, ...], Optional[bytes]]:
    pos, status = view
    return (tuple(pos), None if status is None else bytes(bytearray(status)))


def evaluate_round(
    round_no: int,
    arrays,
    labels: Sequence,
    *,
    views: Iterable[MonitorView],
    decisions: Sequence[Optional[int]],
    crashed: Optional[Sequence[bool]] = None,
    crash_rounds: Optional[Dict[int, int]] = None,
    silenced_rounds: Optional[Dict[int, int]] = None,
) -> List[Violation]:
    """All violated invariants of one observed round, sorted.

    Pure function of the observed state: ``arrays`` is the run's
    :class:`~repro.tree.arrays.TopologyArrays`, ``views`` the distinct
    live local views in :data:`MonitorView` form, ``decisions`` the
    decided names by label rank (None = undecided), ``crashed`` the
    crash flags, and ``crash_rounds`` the first round each crashed rank
    was observed crashed (for the purge-deadline check).

    ``silenced_rounds`` maps each rank silenced by a message-omission
    adversary to the first silenced round.  Omission is outside the
    paper's crash-fault model, and a silenced-but-alive ball genuinely
    can collide on a name (its peers purged it, its own view never
    learns); the monitor still reports that uniqueness violation — the
    honest verdict — but annotates it so a fault-injection sweep can
    tell algorithmic bugs from injected, expected degradation.
    """
    n = len(labels)
    span = arrays.span
    violations: List[Violation] = []

    # Namespace + uniqueness over the decisions of correct balls.
    first_owner: Dict[int, int] = {}
    for j in range(n):
        name = decisions[j]
        if name is None or name < 0 or (crashed is not None and crashed[j]):
            continue
        if name >= n:
            violations.append(
                Violation(
                    "namespace",
                    round_no,
                    f"ball {labels[j]!r} decided name {name} outside 0..{n - 1}",
                    ball=j,
                )
            )
            continue
        owner = first_owner.get(name)
        if owner is None:
            first_owner[name] = j
        else:
            detail = (
                f"balls {labels[owner]!r} and {labels[j]!r} both "
                f"decided name {name}"
            )
            if silenced_rounds:
                for rank in (owner, j):
                    if rank in silenced_rounds:
                        detail += (
                            f" (ball {labels[rank]!r} silenced by omission "
                            f"since round {silenced_rounds[rank]}, "
                            f"not crashed)"
                        )
            violations.append(
                Violation("uniqueness", round_no, detail, ball=j)
            )

    # Per-view structural checks, deduplicated by view content.
    seen = set()
    for view in views:
        key = _view_key(view)
        if key in seen:
            continue
        seen.add(key)
        pos, status = key
        occupancy: Dict[int, int] = {}
        announced_at: Dict[int, int] = {}
        for j in range(n):
            p = pos[j]
            if p < 0:
                continue
            st = status[j] if status is not None else _ACTIVE
            if span[p] == 1:
                occupancy[p] = occupancy.get(p, 0) + 1
                if st == _ANNOUNCED:
                    announced_at[p] = announced_at.get(p, 0) + 1
            elif st == _ANNOUNCED:
                violations.append(
                    Violation(
                        "retention",
                        round_no,
                        f"announced ball {labels[j]!r} parked at inner "
                        f"node {p}",
                        ball=j,
                        node=p,
                    )
                )
            if (
                crashed is not None
                and crashed[j]
                and st == _ACTIVE
                and crash_rounds is not None
                and round_no > crash_rounds.get(j, round_no)
            ):
                violations.append(
                    Violation(
                        "crash-retention",
                        round_no,
                        f"ball {labels[j]!r} crashed in round "
                        f"{crash_rounds[j]} but is still present as ACTIVE",
                        ball=j,
                        node=p,
                    )
                )
        for leaf, occ in occupancy.items():
            announced = announced_at.get(leaf, 0)
            if occ > 1 + announced:
                violations.append(
                    Violation(
                        "leaf-capacity",
                        round_no,
                        f"leaf {leaf} holds {occ} balls "
                        f"({announced} announced)",
                        node=leaf,
                    )
                )
    violations.sort(key=Violation.sort_key)
    return violations


class RunMonitor:
    """Stateful per-run monitor: per-round predicates + progress tracking.

    One instance observes one run, round by round, through an
    engine-specific adapter.  ``violations`` accumulates every finding;
    ``deadlocked`` latches once the progress monitor proves a fixed
    point, at which point the driving kernel aborts the run with
    :class:`~repro.errors.MonitorViolation` instead of spinning to the
    round limit.
    """

    def __init__(
        self,
        labels: Sequence,
        arrays,
        *,
        halt_on_name: bool = False,
        stall_window: int = STALL_WINDOW,
    ) -> None:
        self.labels = list(labels)
        self.n = len(self.labels)
        self.arrays = arrays
        self.halt_on_name = halt_on_name
        self.stall_window = stall_window
        self.violations: List[Violation] = []
        self.deadlocked = False
        self._crash_rounds: Dict[int, int] = {}
        self._silenced_rounds: Dict[int, int] = {}
        self._fingerprint = None
        self._streak = 0

    def observe(
        self,
        round_no: int,
        *,
        views: Iterable[MonitorView],
        decisions: Sequence[Optional[int]],
        crashed: Optional[Sequence[bool]] = None,
        running: int = 0,
        silenced: Optional[Dict[int, int]] = None,
    ) -> List[Violation]:
        """Record one round's state; returns that round's new findings.

        ``silenced`` maps ranks silenced by omission to their first
        silenced round (monotone per run; later observations may only
        add entries), used to annotate uniqueness findings.
        """
        views = [(_view_key(view)) for view in views]
        if crashed is not None:
            for j in range(self.n):
                if crashed[j] and j not in self._crash_rounds:
                    self._crash_rounds[j] = round_no
        if silenced:
            for j, since in silenced.items():
                self._silenced_rounds.setdefault(j, since)
        found = evaluate_round(
            round_no,
            self.arrays,
            self.labels,
            views=views,
            decisions=decisions,
            crashed=crashed,
            crash_rounds=self._crash_rounds,
            silenced_rounds=self._silenced_rounds,
        )
        # Progress: the observable state as an engine-independent
        # fingerprint.  Identical for STALL_WINDOW consecutive rounds
        # with balls still running = a deterministic fixed point.
        fingerprint = (
            tuple(sorted(set(views))),
            tuple(-1 if d is None else int(d) for d in decisions),
            tuple(bool(c) for c in crashed) if crashed is not None else None,
            int(running),
        )
        if running > 0 and fingerprint == self._fingerprint:
            self._streak += 1
            if self._streak == self.stall_window:
                self.deadlocked = True
                stall = Violation(
                    "progress",
                    round_no,
                    f"no state change for {self._streak} rounds with "
                    f"{running} ball(s) running",
                )
                found = found + [stall]
        else:
            self._streak = 0
        self._fingerprint = fingerprint
        self.violations.extend(found)
        return found

    def report(self) -> List[str]:
        """All findings rendered (jsonl-ready), in observation order."""
        return [violation.render() for violation in self.violations]


# --------------------------------------------------------------- adapters


def observe_crash_engine(monitor: RunMonitor, engine, round_no: int) -> None:
    """One observation of a ``ColumnarCrashEngine`` round."""
    monitor.observe(
        round_no,
        views=engine.monitor_views(),
        decisions=engine.decision,
        crashed=engine.crashed,
        running=engine.running_count,
        silenced=engine.silenced_round,
    )


class ReferenceMonitorAdapter:
    """A :class:`~repro.sim.simulator.Simulation` observer feeding the
    monitor the same state the columnar adapters see.

    Attach to the reference kernel's observer list; after every round it
    extracts the distinct local views of running balls, converts node
    tuples to array indices, and aborts the simulation on a detected
    deadlock — byte-identical verdicts to the fast-path monitors.
    """

    def __init__(self, monitor: RunMonitor) -> None:
        self.monitor = monitor
        self._rank = {label: j for j, label in enumerate(monitor.labels)}
        self._index_of = monitor.arrays.index_of

    def __call__(self, simulation, round_no: int) -> None:
        monitor = self.monitor
        n = monitor.n
        rank = self._rank
        index_of = self._index_of
        crashed_set = simulation.crashed
        crashed = [False] * n
        for pid in crashed_set:
            crashed[rank[pid]] = True
        decisions: List[Optional[int]] = [None] * n
        raw_views = []
        seen_ids = set()
        running = 0
        for pid, proc in simulation.processes.items():
            decisions[rank[pid]] = proc.decision
            if pid in crashed_set or proc.halted:
                continue
            running += 1
            view = proc.view
            # repro: lint-ok[D104] identity dedup; raw_views keep deterministic pid order
            if id(view) not in seen_ids:
                # repro: lint-ok[D104] identity dedup; raw_views keep deterministic pid order
                seen_ids.add(id(view))
                raw_views.append(view)
        views = []
        for view in raw_views:
            pos = [-1] * n
            status = bytearray(n)
            for ball in view.balls():
                j = rank[ball]
                pos[j] = index_of[view.position(ball)]
                status[j] = view.status(ball)
            views.append((pos, bytes(status)))
        silenced = {
            rank[pid]: since
            for pid, since in simulation.silenced_rounds.items()
        }
        monitor.observe(
            round_no,
            views=views,
            decisions=decisions,
            crashed=crashed,
            running=running,
            silenced=silenced,
        )
        if monitor.deadlocked:
            raise MonitorViolation(monitor.violations)


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
    ``stall_window`` rounds is reported and stopped (``engine.stopped``),
    where the scalar kernels raise :class:`MonitorViolation`.
    """

    def __init__(self, engine, *, stall_window: int = STALL_WINDOW) -> None:
        self.labels = engine.labels
        self.n = engine.n
        self.trials = engine.trials
        self.stall_window = stall_window
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
        live = np.unique(engine.cls_of[running])
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
            firing = (self._streak == self.stall_window) & ~self.stalled
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
                        f"no state change for {self.stall_window} rounds "
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
