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
from repro.errors import MonitorViolation

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
    ) -> None:
        self.labels = list(labels)
        self.n = len(self.labels)
        self.arrays = arrays
        self.halt_on_name = halt_on_name
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
            if self._streak == STALL_WINDOW:
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
