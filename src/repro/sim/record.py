"""One fast run's record, and the one decoder of what the run reports.

Both fast engines keep the same facts about a run: per ball, its
decided name and the rounds it crashed, named and halted in (None =
never), and per round, the messages sent and delivered, crashes, balls
alive and running after it, links dropped by omission and the senders
that dropped them.  :class:`TrialRecord` holds those facts, read from
the columnar engine's lists or from one trial of a stacked cell, and
builds from them everything a fast run reports: its
:class:`~repro.sim.metrics.SimulationMetrics`, its
:class:`~repro.sim.simulator.SimulationResult`, the latest naming round
of a correct ball and its cheap trace.  Both kernels decode through it,
so their outputs agree by construction.

A record may hold per-ball events of a round its rows do not reach (a
round that raised part way); the decoder reports the rows' rounds only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.metrics import RoundMetrics, SimulationMetrics
from repro.sim.simulator import SimulationResult
from repro.sim.trace import Trace


@dataclass(frozen=True)
class TrialRecord:
    """Per-ball columns by label rank, per-round rows by round (round r
    at index r - 1)."""

    labels: Sequence[Any]
    decision: Sequence[Optional[int]]
    round_crashed: Sequence[Optional[int]]
    round_named: Sequence[Optional[int]]
    round_halted: Sequence[Optional[int]]
    sent: Sequence[int]
    delivered: Sequence[int]
    crashes: Sequence[int]
    alive: Sequence[int]
    running: Sequence[int]
    omissions: Sequence[int]
    #: Each round's omitting senders' label ranks, in clamped-plan order.
    omitters: Sequence[Sequence[int]]

    def metrics(self) -> SimulationMetrics:
        """The per-round counters the reference engine records."""
        rows = zip(
            self.sent, self.delivered, self.crashes, self.alive,
            self.running, self.omissions,
        )
        return SimulationMetrics(
            [RoundMetrics(r, *row) for r, row in enumerate(rows, 1)]
        )

    def result(self, trace: Optional[Trace] = None) -> SimulationResult:
        """The completed run's result, as the reference engine builds it."""
        labels = self.labels
        return SimulationResult(
            rounds=len(self.sent),
            decisions=dict(zip(labels, self.decision)),
            crashed=_marked(labels, self.round_crashed),
            halted=_marked(labels, self.round_halted),
            metrics=self.metrics(),
            trace=trace,
            participants=frozenset(labels),
        )

    def last_round_named(self) -> Optional[int]:
        """Latest round at which a correct ball fixed its name."""
        return max(
            (
                named
                for named, crashed in zip(self.round_named, self.round_crashed)
                if named is not None and crashed is None
            ),
            default=None,
        )

    def write_trace(self, trace: Trace) -> None:
        """Append the cheap trace.  Within a round the kinds come crash,
        omit, name, halt, round; crash, name and halt pids in label-rank
        order and omits in clamped-plan order."""
        labels = self.labels
        decision = self.decision
        events: Dict[Tuple[int, str], List[int]] = {}
        for kind, rounds in (
            ("crash", self.round_crashed),
            ("name", self.round_named),
            ("halt", self.round_halted),
        ):
            for j, r in enumerate(rounds):
                if r is not None:
                    events.setdefault((r, kind), []).append(j)
        rows = zip(self.sent, self.crashes, self.running, self.omitters)
        for r, (sent, crashes, running, omitters) in enumerate(rows, 1):
            for j in events.get((r, "crash"), ()):
                trace.record(r, "crash", pid=labels[j])
            for j in omitters:
                trace.record(r, "omit", pid=labels[j])
            for j in events.get((r, "name"), ()):
                trace.record(r, "name", pid=labels[j], name=decision[j])
            for j in events.get((r, "halt"), ()):
                trace.record(r, "halt", pid=labels[j], decision=decision[j])
            trace.record(r, "round", sent=sent, crashes=crashes, running=running)


def _marked(labels: Sequence[Any], rounds: Sequence[Optional[int]]) -> frozenset:
    """The labels whose round is set."""
    return frozenset(pid for pid, r in zip(labels, rounds) if r is not None)
