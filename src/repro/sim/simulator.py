"""The lock-step round engine.

One :meth:`Simulation.step` executes a full round of the Section 3 model:

1. every *running* process (alive, not halted) composes its broadcast;
2. the adversary inspects the round (including the outbox) and returns a
   fault plan, which the engine validates and clamps against the crash
   budget and the omission budget;
3. inboxes are built: a healthy sender reaches every alive process, a
   crashing sender reaches only the receivers the adversary chose (crash
   while broadcasting), and an omitted link drops; senders always know
   their own message;
4. every surviving, non-halted process consumes its inbox.

Halted processes stay silent but remain "alive" — distinguishing a
terminated peer from a crashed one is the algorithm's problem, exactly as
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.adversary.base import (
    Adversary,
    AdversaryContext,
    FaultBudget,
    FaultPlan,
    clamp_fault_plan,
)
from repro.errors import ConfigurationError, RoundLimitExceeded
from repro.ids import ProcessId, require_distinct
from repro.sim.metrics import RoundMetrics, SimulationMetrics
from repro.sim.process import SyncProcess
from repro.sim.trace import Trace

#: Observers run after every round with (simulation, round_no).
Observer = Callable[["Simulation", int], None]


@dataclass
class SimulationResult:
    """Outcome of a completed run."""

    rounds: int
    decisions: Dict[ProcessId, Any]
    crashed: FrozenSet[ProcessId]
    halted: FrozenSet[ProcessId]
    metrics: SimulationMetrics
    trace: Optional[Trace] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    #: All participating pids.  The simulator always fills this in; when a
    #: hand-built result leaves it None, the decision keys stand in — but
    #: then a process that crashed before deciding and was dropped from
    #: ``decisions`` would silently vanish from the correct set.
    participants: Optional[FrozenSet[ProcessId]] = None

    @property
    def correct(self) -> FrozenSet[ProcessId]:
        """Processes that never crashed, over *all* participants."""
        pids = self.participants if self.participants is not None else self.decisions
        return frozenset(pid for pid in pids if pid not in self.crashed)


class Simulation:
    """Drives a set of :class:`SyncProcess` against an adversary."""

    def __init__(
        self,
        processes: Sequence[SyncProcess],
        *,
        adversary: Optional[Adversary] = None,
        crash_budget: Optional[int] = None,
        max_rounds: int = 10_000,
        trace: Optional[Trace] = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        require_distinct([p.pid for p in processes])
        if not processes:
            raise ConfigurationError("a simulation needs at least one process")
        n = len(processes)
        if crash_budget is None:
            crash_budget = n - 1  # the paper's t < n default
        if not 0 <= crash_budget < n:
            raise ConfigurationError(
                f"crash budget must satisfy 0 <= t < n; got t={crash_budget}, n={n}"
            )
        self._procs: Dict[ProcessId, SyncProcess] = {p.pid: p for p in processes}
        self._adversary = adversary
        self._budget = crash_budget
        self._max_rounds = max_rounds
        self._trace = trace
        self._observers = list(observers)
        self._crashed: Set[ProcessId] = set()
        self._round = 0
        self._metrics = SimulationMetrics()
        # Omission state: the adversary's declared budget, the links
        # dropped so far (for clamping), and the first round each sender
        # was silenced by omission (monitor annotation).
        self._fault_budget: FaultBudget = (
            adversary.fault_budget() if adversary is not None else FaultBudget()
        )
        self._omissions_used = 0
        self._silenced_round: Dict[ProcessId, int] = {}

    # ------------------------------------------------------------- inspection
    @property
    def round_no(self) -> int:
        """Rounds executed so far."""
        return self._round

    @property
    def processes(self) -> Mapping[ProcessId, SyncProcess]:
        """All processes by pid (read-only use)."""
        return self._procs

    @property
    def crashed(self) -> FrozenSet[ProcessId]:
        """Pids crashed so far."""
        return frozenset(self._crashed)

    @property
    def metrics(self) -> SimulationMetrics:
        """Per-round counters collected so far."""
        return self._metrics

    @property
    def silenced_rounds(self) -> Dict[ProcessId, int]:
        """First round each sender was silenced by omission (not crashed)."""
        return dict(self._silenced_round)

    def alive(self) -> List[ProcessId]:
        """Pids that have not crashed (halted processes included)."""
        return [pid for pid in self._procs if pid not in self._crashed]

    def running(self) -> List[ProcessId]:
        """Pids that are alive and have not halted."""
        return [
            pid
            for pid, proc in self._procs.items()
            if pid not in self._crashed and not proc.halted
        ]

    # ---------------------------------------------------------------- driving
    def step(self) -> bool:
        """Execute one round.  Returns True while any process keeps running."""
        running = self.running()
        if not running:
            return False
        self._round += 1
        round_no = self._round

        outbox: Dict[ProcessId, Any] = {}
        for pid in running:
            payload = self._procs[pid].compose(round_no)
            if payload is not None:
                outbox[pid] = payload

        fault = self._plan_faults(round_no, running, outbox)
        plan = fault.crashes
        for victim in plan:
            self._crashed.add(victim)
            if self._trace is not None:
                self._trace.record(
                    round_no, "crash", pid=victim, receivers=sorted(plan[victim], key=repr)
                )

        alive_now = [pid for pid in self._procs if pid not in self._crashed]
        receivers = [pid for pid in alive_now if not self._procs[pid].halted]
        deliveries, delivered, omitted = self._deliver(
            round_no, outbox, receivers, fault
        )

        for receiver, inbox in deliveries:
            proc = self._procs[receiver]
            proc.deliver(round_no, inbox)
            if self._trace is not None and proc.halted:
                self._trace.record(round_no, "halt", pid=receiver, decision=proc.decision)

        # Deliveries are done, so the running set is stable for the rest
        # of the round: compute it once for metrics, trace, and the
        # return value.
        running_after = len(self.running())
        self._metrics.record(
            RoundMetrics(
                round_no=round_no,
                messages_sent=len(outbox),
                messages_delivered=delivered,
                crashes=len(plan),
                alive_after=len(alive_now),
                running_after=running_after,
                omissions=omitted,
            )
        )
        if self._trace is not None:
            self._trace.record(
                round_no,
                "round",
                sent=len(outbox),
                crashes=len(plan),
                running=running_after,
            )
        for observer in self._observers:
            observer(self, round_no)
        return bool(running_after)

    def run(self) -> SimulationResult:
        """Run rounds until everyone halts or crashes; raise past the limit."""
        while True:
            if self._round >= self._max_rounds:
                raise RoundLimitExceeded(self._max_rounds, len(self.running()))
            if not self.step():
                break
        decisions = {pid: proc.decision for pid, proc in self._procs.items()}
        halted = frozenset(pid for pid, proc in self._procs.items() if proc.halted)
        return SimulationResult(
            rounds=self._round,
            decisions=decisions,
            crashed=self.crashed,
            halted=halted,
            metrics=self._metrics,
            trace=self._trace,
            participants=frozenset(self._procs),
        )

    # ---------------------------------------------------------------- private
    def _plan_faults(
        self,
        round_no: int,
        running: Sequence[ProcessId],
        outbox: Mapping[ProcessId, Any],
    ) -> FaultPlan:
        if self._adversary is None:
            return FaultPlan()
        remaining = self._budget - len(self._crashed)
        if remaining <= 0 and tuple(self._adversary.fault_families()) == ("crash",):
            # Crash-only adversaries are never consulted past the budget
            # (preserving the original engine's RNG consumption exactly);
            # omission adversaries still plan their omissions.
            return FaultPlan()
        budget = self._fault_budget
        ctx = AdversaryContext(
            round_no=round_no,
            running=tuple(running),
            alive=tuple(self.alive()),
            outbox=dict(outbox),
            crashed_so_far=frozenset(self._crashed),
            budget_remaining=max(0, remaining),
            processes=self._procs,
            omission_budget_remaining=(
                None
                if budget.omissions is None
                else max(0, budget.omissions - self._omissions_used)
            ),
        )
        plan = self._adversary.plan_faults(ctx) or FaultPlan()
        clamped = clamp_fault_plan(
            plan,
            alive=self.alive(),
            budget_remaining=max(0, remaining),
            budget=budget,
            omissions_used=self._omissions_used,
        )
        self._omissions_used += sum(len(d) for d in clamped.omissions.values())
        return clamped

    def _deliver(
        self,
        round_no: int,
        outbox: Mapping[ProcessId, Any],
        receivers: Sequence[ProcessId],
        fault: FaultPlan,
    ) -> Tuple[List[Tuple[ProcessId, Dict[ProcessId, Any]]], int, int]:
        """Build the round's inboxes: ``(deliveries, delivered, omitted)``.

        A sender is *special* if it crashes or omits this round.  A
        healthy sender reaches every receiver; a special sender reaches a
        receiver when its crash plan (if any) kept that receiver and the
        link is not omitted.  The clamp never masks a self-link, so an
        omitting sender always hears itself.

        Receivers with the same delivery signature (the special senders
        that reach them) share one inbox dict.  This keeps delivery
        O(n + special * n) per round instead of O(n^2), and lets the
        shared-view store key its memo on inbox object identity.
        Inboxes are shared: processes must treat them as read-only,
        which SyncProcess implementations do.
        """
        plan = fault.crashes
        omissions = fault.omissions
        receiver_set = set(receivers)

        omitted = 0
        for sender in sorted(omissions, key=repr):
            if sender not in outbox:
                continue
            dropped = omissions[sender] & receiver_set
            if dropped:
                omitted += len(dropped)
                self._silenced_round.setdefault(sender, round_no)
                if self._trace is not None:
                    self._trace.record(
                        round_no, "omit", pid=sender, dropped=sorted(dropped, key=repr)
                    )

        # Crash victims in plan order, then omitting senders (the clamp
        # keeps the two disjoint: crash wins).
        special = dict.fromkeys(
            sender for sender in (*plan, *omissions) if sender in outbox
        )
        base_inbox: Dict[ProcessId, Any] = {
            sender: payload
            for sender, payload in outbox.items()
            if sender not in special
        }
        inbox_by_signature: Dict[FrozenSet[ProcessId], Dict[ProcessId, Any]] = {}
        deliveries: List[Tuple[ProcessId, Dict[ProcessId, Any]]] = []
        delivered = 0
        for receiver in receivers:
            signature = frozenset(
                sender
                for sender in special
                if (sender not in plan or receiver in plan[sender])
                and receiver not in omissions.get(sender, ())
            )
            inbox = inbox_by_signature.get(signature)
            if inbox is None:
                if signature:
                    inbox = dict(base_inbox)
                    for sender in signature:
                        inbox[sender] = outbox[sender]
                else:
                    inbox = base_inbox
                inbox_by_signature[signature] = inbox
            deliveries.append((receiver, inbox))
            delivered += len(inbox)
        return deliveries, delivered, omitted
