"""Fault-plan contracts beyond plain kernel equality.

That certified **omission** adversaries are bit-identical between the
reference engine and the columnar fast path is the differential
oracle's job (``tests/test_oracle.py``).  This file keeps:

* ``auto`` keeps certified omission runs on the columnar fast path;
* a kernel that does not apply a declared family rejects the run *by
  family name* (omission on the crash-only vectorized kernel);
* :func:`~repro.adversary.base.clamp_fault_plan` — the shared rulebook
  both engines apply — can never exceed the omission budget, resurrect
  a crashed sender, or mask a self-link, no matter what plan an
  adversary returns (seeded-random property sweep).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.base import (
    FaultBudget,
    FaultPlan,
    clamp_fault_plan,
)
from repro.adversary.omission import IIDOmissionAdversary
from repro.errors import KernelUnsupported
from repro.ids import sparse_ids
from repro.sim.runner import run_renaming


class TestOmissionBitIdentical:
    def test_auto_keeps_omission_on_the_fast_path(self):
        run = run_renaming(
            "balls-into-leaves",
            sparse_ids(16),
            seed=0,
            adversary=IIDOmissionAdversary(0.1, rounds=(2, 6), seed=0),
            kernel="auto",
            check=False,
        )
        assert run.kernel == "columnar"


class TestUnsupportedFamiliesRejectByName:
    def test_omission_rejected_on_vectorized_by_name(self):
        # The vectorized batch kernel supports the crash family only.
        with pytest.raises(KernelUnsupported, match="'omission'"):
            run_renaming(
                "balls-into-leaves",
                sparse_ids(8),
                seed=0,
                adversary=IIDOmissionAdversary(0.1, seed=0),
                kernel="vectorized",
            )


def _random_fault_plan(rng, pids):
    crashes = {
        pid: frozenset(rng.sample(pids, rng.randrange(len(pids))))
        for pid in rng.sample(pids, rng.randrange(len(pids) // 2 + 1))
    }
    omissions = {
        pid: frozenset(rng.sample(pids, rng.randrange(1, len(pids))))
        for pid in rng.sample(pids, rng.randrange(len(pids) // 2 + 1))
    }
    return FaultPlan(crashes=crashes, omissions=omissions)


class TestClampFaultPlanProperties:
    """Seeded-random property sweep over the shared clamp rulebook."""

    PIDS = list(range(10))

    def _clamped(self, seed):
        rng = random.Random(seed)
        alive = sorted(rng.sample(self.PIDS, rng.randrange(2, len(self.PIDS))))
        budget = FaultBudget(omissions=rng.choice([None, 0, 1, 3, 5]))
        omissions_used = rng.randrange(3)
        plan = _random_fault_plan(rng, self.PIDS)
        clamped = clamp_fault_plan(
            plan,
            alive=alive,
            budget_remaining=rng.randrange(4),
            budget=budget,
            omissions_used=omissions_used,
        )
        return plan, clamped, alive, budget, omissions_used

    @pytest.mark.parametrize("seed", range(60))
    def test_budgets_and_liveness_hold(self, seed):
        plan, clamped, alive, budget, used = self._clamped(seed)
        alive_set = set(alive)

        # Crash clamp: victims alive, budget respected.
        assert set(clamped.crashes) <= alive_set

        # A crashing sender cannot also omit (no resurrection: crash
        # wins for the same sender).
        for sender in clamped.omissions:
            assert sender not in clamped.crashes
            assert sender in alive_set

        # No self-links; receivers must be alive.
        for sender, dropped in clamped.omissions.items():
            assert sender not in dropped
            assert dropped <= alive_set

        # Omission budget: dropped links never exceed what remains.
        if budget.omissions is not None:
            total = sum(len(d) for d in clamped.omissions.values())
            assert total <= max(0, budget.omissions - used)

    @pytest.mark.parametrize("seed", range(10))
    def test_clamp_is_deterministic(self, seed):
        _, first, *_ = self._clamped(seed)
        _, second, *_ = self._clamped(seed)
        assert first == second
