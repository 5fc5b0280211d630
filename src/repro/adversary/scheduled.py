"""Scripted fault schedules, for tests, figure reproduction and hunts.

A :class:`ScheduledCrash` names the round, the victim, and which receivers
still get the victim's broadcast ("all", "none", or an explicit list), so
unit tests can stage the exact view-divergence scenarios the paper argues
about.  A :class:`ScheduledOmission` masks one sender's broadcast to the
named receivers for one round without crashing the sender; searched
genotypes with omit events compile to it
(:meth:`repro.search.schedule.Schedule.compile`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.adversary.base import (
    Adversary,
    AdversaryContext,
    CrashPlan,
    FaultPlan,
    OmissionPlan,
)
from repro.adversary.certification import certified
from repro.ids import ProcessId

#: Receiver spec: "all", "none", or an explicit pid list.
Receivers = Union[str, Sequence[ProcessId]]

#: Dropped-receiver spec: "all" (everyone but the sender) or a pid list.
Dropped = Union[str, Sequence[ProcessId]]


@dataclass(frozen=True)
class ScheduledCrash:
    """Crash ``victim`` in ``round_no``, delivering to ``receivers``."""

    round_no: int
    victim: ProcessId
    receivers: Receivers = "none"


@dataclass(frozen=True)
class ScheduledOmission:
    """Drop ``sender``'s round-``round_no`` broadcast to ``dropped``."""

    round_no: int
    sender: ProcessId
    dropped: Dropped = "all"


@certified
class ScheduledAdversary(Adversary):
    """Replays fixed lists of :class:`ScheduledCrash` and
    :class:`ScheduledOmission` entries.

    Without omissions it declares the crash family only, so crash-only
    schedules stack on the vectorized engine; with them it declares both
    families and stays on the engines that apply omissions.
    """

    def __init__(
        self,
        crashes: Sequence[ScheduledCrash],
        omissions: Sequence[ScheduledOmission] = (),
    ) -> None:
        super().__init__(seed=0)
        self._by_round: Dict[int, List[ScheduledCrash]] = {}
        for entry in crashes:
            self._by_round.setdefault(entry.round_no, []).append(entry)
        self._omissions_by_round: Dict[int, List[ScheduledOmission]] = {}
        for omission in omissions:
            self._omissions_by_round.setdefault(omission.round_no, []).append(omission)
        self._last_round = max(
            [*self._by_round, *self._omissions_by_round], default=0
        )

    def plan(self, ctx: AdversaryContext) -> CrashPlan:
        plan: CrashPlan = {}
        for entry in self._by_round.get(ctx.round_no, []):
            if entry.receivers == "all":
                receivers = frozenset(p for p in ctx.alive if p != entry.victim)
            elif entry.receivers == "none":
                receivers = frozenset()
            else:
                receivers = frozenset(entry.receivers)
            plan[entry.victim] = receivers
        return plan

    def plan_faults(self, ctx: AdversaryContext) -> FaultPlan:
        omissions: OmissionPlan = {}
        for entry in self._omissions_by_round.get(ctx.round_no, []):
            if entry.dropped == "all":
                dropped = frozenset(p for p in ctx.alive if p != entry.sender)
            else:
                dropped = frozenset(entry.dropped)
            if dropped:
                omissions[entry.sender] = dropped
        return FaultPlan(crashes=self.plan(ctx), omissions=omissions)

    def fault_families(self) -> Tuple[str, ...]:
        return ("crash", "omission") if self._omissions_by_round else ("crash",)

    def last_fault_round(self) -> Optional[int]:
        """The last scheduled event's round (0 for an empty schedule)."""
        return self._last_round
