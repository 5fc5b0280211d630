"""Adversary protocol shared by the simulator and all strategies.

Two layers of plan:

* :data:`CrashPlan` — the original crash-only protocol: victim pid ->
  receivers that still get its broadcast.
* :class:`FaultPlan` — the generalized protocol composing two fault
  families: ``crash`` (the plan above) and ``omission`` (per-link
  delivery masks: the sender stays alive, some links drop).  Crash-only
  adversaries keep implementing :meth:`Adversary.plan`; omission
  adversaries override :meth:`Adversary.plan_faults` and declare their
  families and budgets.

Both engines clamp through the same :func:`clamp_fault_plan`, so the
fault semantics — crash wins over omission for the same sender, no
self-links, no resurrecting a crashed sender, deterministic budget
truncation — are identical on the reference and columnar kernels.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.ids import ProcessId

#: A round's crash plan: victim pid -> receivers that still get its
#: broadcast.  An empty set means the victim crashed before sending.
CrashPlan = Dict[ProcessId, FrozenSet[ProcessId]]

#: A round's omission plan: sender pid -> receivers that do NOT hear its
#: broadcast this round (the sender itself is never maskable).
OmissionPlan = Dict[ProcessId, FrozenSet[ProcessId]]

#: The canonical fault-family vocabulary, in engine-support order.
FAULT_FAMILIES: Tuple[str, ...] = ("crash", "omission")


@dataclass(frozen=True)
class FaultBudget:
    """Per-family limits an adversary declares for a whole run.

    ``omissions`` bounds the total dropped links over the run (None =
    unbounded, 0 = none); crashes need no entry, since the model's ``t``
    is the engine's crash budget.
    """

    omissions: Optional[int] = None

    def describe(self) -> str:
        """Compact ``key=value`` rendering for jsonl rows ("" = default)."""
        if self.omissions is None:
            return ""
        return f"omissions={self.omissions}"


@dataclass(frozen=True)
class FaultPlan:
    """One round's composed fault injection across both families."""

    crashes: CrashPlan = field(default_factory=dict)
    omissions: OmissionPlan = field(default_factory=dict)

    @classmethod
    def of_crashes(cls, plan: Optional[CrashPlan]) -> "FaultPlan":
        """Wrap a legacy crash plan (None tolerated) as a fault plan."""
        return cls(crashes=dict(plan) if plan else {})


@dataclass(frozen=True)
class AdversaryContext:
    """Everything a strong adaptive adversary may inspect for one round.

    ``outbox`` exposes the payloads about to be broadcast — including the
    processes' random choices for the round — realizing the "strong"
    adversary of the paper.  ``processes`` gives read access to process
    objects for fully adaptive strategies; adversaries must treat them as
    read-only.  ``omission_budget_remaining`` carries the omission
    family's budget state (None = unbounded).
    """

    round_no: int
    running: Sequence[ProcessId]
    alive: Sequence[ProcessId]
    outbox: Mapping[ProcessId, Any]
    crashed_so_far: FrozenSet[ProcessId]
    budget_remaining: int
    processes: Mapping[ProcessId, Any]
    omission_budget_remaining: Optional[int] = None


class Adversary(ABC):
    """Base class for fault adversaries.

    Crash-only subclasses implement :meth:`plan`; fault-injecting
    subclasses additionally override :meth:`plan_faults` (whose default
    wraps :meth:`plan`), :meth:`fault_families`, and :meth:`fault_budget`.
    The engines validate and clamp every returned plan against the crash
    budget ``t``, the per-family :class:`FaultBudget`, and the set of
    processes still alive, so strategies may be written optimistically.
    """

    def __init__(self, *, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    @property
    def rng(self) -> random.Random:
        """The adversary's private randomness (independent of processes')."""
        return self._rng

    @abstractmethod
    def plan(self, ctx: AdversaryContext) -> CrashPlan:
        """Return this round's crash plan (possibly empty)."""

    def plan_faults(self, ctx: AdversaryContext) -> FaultPlan:
        """Return this round's full fault plan.

        The default wraps :meth:`plan`, so crash-only strategies are
        fault adversaries for free — with bit-identical RNG consumption,
        which the cross-kernel differential suite relies on.
        """
        return FaultPlan.of_crashes(self.plan(ctx))

    def fault_families(self) -> Tuple[str, ...]:
        """The fault families this adversary may exercise.

        Kernel selection consults this through
        :func:`repro.adversary.certification.certification_failure`: a
        kernel that does not support every declared family rejects the
        run (naming the family), and ``auto`` falls back to the
        reference engine.
        """
        return ("crash",)

    def fault_budget(self) -> FaultBudget:
        """The per-family budget this adversary declares for a run."""
        return FaultBudget()

    def last_fault_round(self) -> Optional[int]:
        """The last round in which :meth:`plan_faults` may return a
        non-empty plan or change this adversary's state; ``None`` (the
        default) means unknown.

        Every later call returns an empty plan and changes nothing, so no
        engine can tell it from not asking.  The columnar engine reads it
        to prove that a phase ending in its own starting state repeats
        until the round limit; ``None`` never lets it stop a run early.
        """
        return None

    # ------------------------------------------------------------ conveniences
    @staticmethod
    def silent(victims: Sequence[ProcessId]) -> CrashPlan:
        """Plan that crashes ``victims`` before they send anything."""
        return {victim: frozenset() for victim in victims}

    @staticmethod
    def partial(victim: ProcessId, receivers: Sequence[ProcessId]) -> CrashPlan:
        """Plan that crashes ``victim`` mid-broadcast, reaching ``receivers``."""
        return {victim: frozenset(receivers)}


def merge_plans(*plans: CrashPlan) -> CrashPlan:
    """Union several plans; duplicate victims keep the first plan's receivers."""
    merged: CrashPlan = {}
    for plan in plans:
        for victim, receivers in plan.items():
            merged.setdefault(victim, receivers)
    return merged


def clamp_plan(
    plan: CrashPlan,
    *,
    alive: Sequence[ProcessId],
    budget_remaining: int,
) -> CrashPlan:
    """Drop victims that are not alive and enforce the remaining budget.

    Victims are kept in sorted-by-repr order for determinism when the plan
    exceeds the budget.
    """
    alive_set = set(alive)
    valid: List[ProcessId] = [v for v in plan if v in alive_set]
    valid.sort(key=repr)
    kept = valid[: max(0, budget_remaining)]
    return {victim: frozenset(plan[victim]) for victim in kept}


def clamp_fault_plan(
    plan: FaultPlan,
    *,
    alive: Sequence[ProcessId],
    budget_remaining: int,
    budget: FaultBudget,
    omissions_used: int = 0,
) -> FaultPlan:
    """Validate one round's fault plan against budgets and liveness.

    The shared rulebook both engines apply (identically, so fault runs
    are bit-for-bit comparable across kernels):

    * crashes clamp exactly as :func:`clamp_plan`;
    * an omitting sender must be alive and not crashing this round
      (**crash wins** over omission for the same sender — a dead sender
      has no links to mask);
    * self-links are never maskable (a process always knows its own
      message), and links to dead receivers are dropped;
    * the omission budget counts dropped links over the whole run, with
      deterministic repr-sorted truncation when a plan exceeds it.
    """
    crashes = clamp_plan(plan.crashes, alive=alive, budget_remaining=budget_remaining)
    alive_set = set(alive)

    omissions: OmissionPlan = {}
    om_remaining = (
        None if budget.omissions is None else max(0, budget.omissions - omissions_used)
    )
    for sender in sorted(plan.omissions, key=repr):
        if sender not in alive_set or sender in crashes:
            continue
        dropped = frozenset(
            r for r in plan.omissions[sender] if r != sender and r in alive_set
        )
        if not dropped:
            continue
        if om_remaining is not None:
            if om_remaining <= 0:
                break
            if len(dropped) > om_remaining:
                dropped = frozenset(sorted(dropped, key=repr)[:om_remaining])
            om_remaining -= len(dropped)
        omissions[sender] = dropped

    return FaultPlan(crashes=crashes, omissions=omissions)
