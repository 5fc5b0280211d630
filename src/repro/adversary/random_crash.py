"""Oblivious random crashes.

Each round, each running process independently crashes with probability
``rate`` (subject to the budget), and the message of a crashing process is
delivered to a uniformly random subset of receivers — the least
coordinated failure pattern, used as the baseline crash mix in the
scaling experiments.
"""

from __future__ import annotations

from typing import Optional

from repro.adversary.base import Adversary, AdversaryContext, CrashPlan
from repro.adversary.certification import certified


@certified
class RandomCrashAdversary(Adversary):
    """Crash each running process with probability ``rate`` per round.

    Parameters
    ----------
    rate:
        Per-process, per-round crash probability.
    max_crashes:
        Optional cap below the simulator's budget (e.g. to realize an
        exact ``f`` for the Theorem 4 experiment).
    delivery:
        How a victim's broadcast is partially delivered.  ``"uniform"``
        gives every victim an independent uniformly random receiver
        subset — up to n distinct views per round, the worst case for
        simulation cost.  ``"split"`` (default) delivers to either the
        even- or odd-indexed half of the alive processes (per victim),
        producing coherent divergent camps; this is the pattern the
        paper's examples use and it keeps large-``n`` sweeps tractable.
    """

    def __init__(
        self,
        rate: float,
        *,
        max_crashes: Optional[int] = None,
        delivery: str = "split",
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"crash rate must be in [0, 1], got {rate}")
        if delivery not in ("uniform", "split"):
            raise ValueError(f"delivery must be 'uniform' or 'split', got {delivery!r}")
        if max_crashes is not None and max_crashes < 0:
            raise ValueError(f"max_crashes must be >= 0, got {max_crashes}")
        self._rate = rate
        self._cap = max_crashes
        self._delivery = delivery
        self._crashes = 0

    def plan(self, ctx: AdversaryContext) -> CrashPlan:
        plan: CrashPlan = {}
        halves = None
        random = self.rng.random
        rate = self._rate
        for pid in ctx.running:
            if self._cap is not None and self._crashes + len(plan) >= self._cap:
                break
            if random() >= rate:
                continue
            if self._delivery == "uniform":
                plan[pid] = frozenset(
                    p for p in ctx.alive if p != pid and random() < 0.5
                )
            else:
                if halves is None:
                    ordered = sorted(ctx.alive, key=repr)
                    halves = (frozenset(ordered[::2]), frozenset(ordered[1::2]))
                plan[pid] = halves[self.rng.randrange(2)] - {pid}
        self._crashes += len(plan)
        return plan
