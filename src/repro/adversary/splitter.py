"""Section 6's worst case for deterministic rank choices.

"A single crash can cause up to n/2 collisions: the ball with the lowest
label sends to every second ball (by label order) and then crashes, so
that all other balls collide in pairs."  This adversary stages exactly
that on the very first broadcast, and can repeat the trick on later
rounds while budget remains — the stress test for the early-terminating
extension (Theorem 4's analysis starts from this pattern).
"""

from __future__ import annotations

from typing import Optional

from repro.adversary.base import Adversary, AdversaryContext, CrashPlan
from repro.adversary.certification import certified


@certified
class HalfSplitAdversary(Adversary):
    """Crash the lowest-labelled sender, delivering to every second process.

    Parameters
    ----------
    rounds:
        Which rounds to strike on (default: only round 1, the label
        announcement — the paper's example).
    victims_per_round:
        How many senders to crash per strike, spread over the label
        order.  Each victim's broadcast reaches an alternating half with
        its own offset, maximizing the number of distinct views.
    max_crashes:
        Optional total cap.
    """

    def __init__(
        self,
        *,
        rounds: Optional[frozenset] = None,
        victims_per_round: int = 1,
        max_crashes: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        if victims_per_round < 1:
            raise ValueError(f"victims_per_round must be >= 1, got {victims_per_round}")
        if max_crashes is not None and max_crashes < 0:
            raise ValueError(f"max_crashes must be >= 0, got {max_crashes}")
        self._rounds = rounds if rounds is not None else frozenset({1})
        self._victims_per_round = victims_per_round
        self._cap = max_crashes
        self._crashes = 0

    def plan(self, ctx: AdversaryContext) -> CrashPlan:
        if ctx.round_no not in self._rounds:
            return {}
        if self._cap is not None and self._crashes >= self._cap:
            return {}
        running = sorted(ctx.running, key=repr)
        if len(running) < 2:
            return {}
        count = min(
            self._victims_per_round,
            len(running) - 1,
            (self._cap - self._crashes) if self._cap is not None else len(running),
        )
        if count < 1:
            return {}
        stride = max(1, len(running) // count)
        victims = running[::stride][:count]
        plan: CrashPlan = {}
        for offset, victim in enumerate(victims):
            others = [p for p in sorted(ctx.alive, key=repr) if p != victim]
            plan[victim] = frozenset(others[offset % 2 :: 2])
        self._crashes += len(plan)
        return plan

    def last_fault_round(self) -> Optional[int]:
        # Plans and the crash count change only in strike rounds.
        return max(self._rounds, default=0)
