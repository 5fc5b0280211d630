"""Adaptive adversary targeting the algorithm's priority structure.

Each path round (where the damage is largest) it crashes the running ball
with the *smallest label* — the one whose broadcast the ``<R`` tie-break
favors — mid-broadcast, delivering to exactly every second alive process.
Splitting receivers in half maximizes view divergence, the mechanism the
Section 5.3 argument shows BiL absorbs without slowdown.
"""

from __future__ import annotations

from typing import Optional

from repro.adversary.base import Adversary, AdversaryContext, CrashPlan
from repro.adversary.certification import certified

# Wire tag of Algorithm 1's candidate-path broadcasts.  Kept as a literal
# (matching repro.core.messages.PATH) to avoid an adversary -> core import
# cycle through the package __init__ modules.
_PATH_TAG = "path"


@certified
class TargetedPriorityAdversary(Adversary):
    """Crash the lowest-labelled running ball each path round.

    Parameters
    ----------
    max_crashes:
        Total victims (defaults to the simulator budget).
    every_k_phases:
        Strike every ``k``-th path round, to stretch a budget over a run.
    """

    def __init__(
        self,
        *,
        max_crashes: Optional[int] = None,
        every_k_phases: int = 1,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        if every_k_phases < 1:
            raise ValueError(f"every_k_phases must be >= 1, got {every_k_phases}")
        if max_crashes is not None and max_crashes < 0:
            raise ValueError(f"max_crashes must be >= 0, got {max_crashes}")
        self._cap = max_crashes
        self._stride = every_k_phases
        self._crashes = 0
        self._strikes_seen = 0

    def plan(self, ctx: AdversaryContext) -> CrashPlan:
        if self._cap is not None and self._crashes >= self._cap:
            return {}
        if not self._is_path_round(ctx):
            return {}
        self._strikes_seen += 1
        if (self._strikes_seen - 1) % self._stride:
            return {}
        victims = sorted(ctx.running, key=repr)
        if not victims:
            return {}
        victim = victims[0]
        others = sorted((p for p in ctx.alive if p != victim), key=repr)
        receivers = frozenset(others[::2])
        self._crashes += 1
        return {victim: receivers}

    @staticmethod
    def _is_path_round(ctx: AdversaryContext) -> bool:
        return any(
            isinstance(payload, tuple) and payload and payload[0] == _PATH_TAG
            for payload in ctx.outbox.values()
        )
