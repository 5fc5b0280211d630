"""Message-omission adversaries: drop links without killing senders.

The omission family masks individual sender -> receiver edges: the sender
stays alive (it keeps broadcasting, it keeps hearing everyone, it always
hears itself), but the masked receivers see silence and — under the
synchronous algorithm's rules — purge the sender from their views exactly
as if it had crashed.  A silenced-but-alive ball therefore keeps holding
its leaf in its *own* view while other views reuse it, which is the
honest degradation mode EXP-FAULT measures.

Both strategies plan from the public
:class:`~repro.adversary.base.AdversaryContext` surface only, so they are
columnar-certified and omission cells keep the fast path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.adversary.base import (
    Adversary,
    AdversaryContext,
    CrashPlan,
    FaultBudget,
    FaultPlan,
    OmissionPlan,
)
from repro.adversary.certification import certified
from repro.ids import ProcessId


@certified
class IIDOmissionAdversary(Adversary):
    """Drop each sender -> receiver link i.i.d. with probability ``p``.

    The loss process uses the adversary's private RNG (independent of the
    processes' randomness), iterating senders and receivers in sorted
    order so the same seed reproduces the same loss pattern on every
    kernel.

    Parameters
    ----------
    p:
        Per-link, per-round loss probability.
    max_omissions:
        Optional run-total cap on dropped links (the declared omission
        budget; None = unbounded).
    rounds:
        Optional inclusive ``(first, last)`` round window for the loss.
        Note that round-1 (hello) drops leave the sender permanently
        unknown to the masked receivers, which can wedge the silenced
        ball past the round limit; a window starting at 2 keeps the loss
        pattern survivable.
    """

    def __init__(
        self,
        p: float,
        *,
        max_omissions: Optional[int] = None,
        rounds: Optional[Tuple[int, int]] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"omission probability must be in [0, 1], got {p}")
        if max_omissions is not None and max_omissions < 0:
            raise ValueError(f"max_omissions must be >= 0, got {max_omissions}")
        if rounds is not None:
            first, last = rounds
            if first < 1 or last < first:
                raise ValueError(
                    f"rounds must satisfy 1 <= first <= last, got {rounds}"
                )
        self._p = p
        self._cap = max_omissions
        self._rounds = tuple(rounds) if rounds is not None else None
        self._dropped = 0

    def plan(self, ctx: AdversaryContext) -> CrashPlan:
        return {}

    def plan_faults(self, ctx: AdversaryContext) -> FaultPlan:
        if self._p == 0.0:
            return FaultPlan()
        if self._rounds is not None:
            first, last = self._rounds
            if not first <= ctx.round_no <= last:
                return FaultPlan()
        remaining = None if self._cap is None else self._cap - self._dropped
        omissions: OmissionPlan = {}
        receivers = sorted(ctx.alive, key=repr)
        for sender in sorted(ctx.running, key=repr):
            if remaining is not None and remaining <= 0:
                break
            dropped: List[ProcessId] = []
            for receiver in receivers:
                if receiver == sender:
                    continue
                if self.rng.random() < self._p:
                    if remaining is not None:
                        if remaining <= 0:
                            continue
                        remaining -= 1
                    dropped.append(receiver)
            if dropped:
                omissions[sender] = frozenset(dropped)
        self._dropped += sum(len(d) for d in omissions.values())
        return FaultPlan(omissions=omissions)

    def fault_families(self) -> Tuple[str, ...]:
        return ("omission",)

    def fault_budget(self) -> FaultBudget:
        return FaultBudget(omissions=self._cap)


@certified
class TargetedOmissionAdversary(Adversary):
    """Silence the ``count`` lowest-labelled running senders every round.

    The targeted counterpart of i.i.d. loss: the same victims lose every
    outgoing link (to everyone but themselves) round after round, so
    their balls are permanently invisible to the rest of the population
    while staying alive — the strongest sustained not-crashed-but-
    silenced pressure the omission family can apply.

    ``rounds`` optionally restricts the silencing to an inclusive
    ``(first, last)`` round window.
    """

    def __init__(
        self,
        count: int = 1,
        *,
        rounds: Optional[Tuple[int, int]] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if rounds is not None:
            first, last = rounds
            if first < 1 or last < first:
                raise ValueError(f"rounds must satisfy 1 <= first <= last, got {rounds}")
        self._count = count
        self._rounds = tuple(rounds) if rounds is not None else None

    def plan(self, ctx: AdversaryContext) -> CrashPlan:
        return {}

    def plan_faults(self, ctx: AdversaryContext) -> FaultPlan:
        if self._rounds is not None:
            first, last = self._rounds
            if not first <= ctx.round_no <= last:
                return FaultPlan()
        victims = sorted(ctx.running, key=repr)[: self._count]
        omissions: OmissionPlan = {}
        for sender in victims:
            dropped = frozenset(p for p in ctx.alive if p != sender)
            if dropped:
                omissions[sender] = dropped
        return FaultPlan(omissions=omissions)

    def fault_families(self) -> Tuple[str, ...]:
        return ("omission",)
