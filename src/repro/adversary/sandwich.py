"""The "sandwich" failure pattern of Chaudhuri, Herlihy and Tuttle.

Their Omega(log n) lower bound keeps deterministic comparison-based
processes in order-equivalent states by crashing, each round, the
*median-labelled* processes mid-broadcast so the survivors' views stay
symmetric.  Against randomized BiL the pattern is just another crash mix
(Section 5.3); against the deterministic rank baseline it forces repeated
rank collisions — the separation experiment uses it for exactly that.
"""

from __future__ import annotations

from typing import Optional

from repro.adversary.base import Adversary, AdversaryContext, CrashPlan
from repro.adversary.certification import certified


@certified
class SandwichAdversary(Adversary):
    """Crash the median running process each striking round.

    The victim's broadcast reaches only the lower half of the survivors
    (by label), keeping the two halves order-inequivalent about the
    middle — the sandwich.  One victim per strike; strikes continue while
    budget remains.
    """

    def __init__(
        self,
        *,
        max_crashes: Optional[int] = None,
        every_k_rounds: int = 2,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        if every_k_rounds < 1:
            raise ValueError(f"every_k_rounds must be >= 1, got {every_k_rounds}")
        if max_crashes is not None and max_crashes < 0:
            raise ValueError(f"max_crashes must be >= 0, got {max_crashes}")
        self._cap = max_crashes
        self._stride = every_k_rounds
        self._crashes = 0

    def plan(self, ctx: AdversaryContext) -> CrashPlan:
        if self._cap is not None and self._crashes >= self._cap:
            return {}
        if (ctx.round_no - 2) % self._stride:
            # Strike on path rounds (2, 2+k, ...); round 1 is the hello.
            return {}
        running = sorted(ctx.running, key=repr)
        if len(running) < 3:
            return {}
        victim = running[len(running) // 2]
        survivors = [p for p in sorted(ctx.alive, key=repr) if p != victim]
        lower_half = frozenset(survivors[: len(survivors) // 2])
        self._crashes += 1
        return {victim: lower_half}
