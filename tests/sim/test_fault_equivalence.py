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
  adversary returns (seeded-random property sweep);
* the columnar kernel stops a proven livelock at its fixed point with
  the reference's error, and only a proven, unwatched one: a run whose
  adversary may still act, or that a monitor or trace watches, plays
  every round and matches the reference.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List
from unittest import mock

import pytest

from repro.adversary.base import (
    FaultBudget,
    FaultPlan,
    clamp_fault_plan,
)
from repro.adversary.omission import IIDOmissionAdversary
from repro.adversary.scheduled import ScheduledAdversary
from repro.core.columnar import ColumnarCrashEngine
from repro.errors import KernelUnsupported, ReproError, RoundLimitExceeded
from repro.ids import sparse_ids
from repro.search.schedule import CrashEvent, Schedule
from repro.sim.runner import run_renaming
from repro.sim.specs import AdversarySpec
from repro.sim.trace import shared_events


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


#: Two mined n=16 livelocks, each one omitted hello (seeds and events as
#: in the oracle's pins).  In the first the state freezes from round to
#: round; in the second it repeats only from phase to phase, and its
#: path rounds draw forced coins (thresholds 0 or 1).
FROZEN = (2165969402635964278, (CrashEvent(1, 2, (4,), "omit"),))
PERIODIC = (11923663329396479847, (CrashEvent(1, 3, (10,), "omit"),))
LIVELOCKS = {"frozen": FROZEN, "periodic": PERIODIC}


@pytest.fixture
def steps(monkeypatch) -> List[int]:
    """The rounds every ``ColumnarCrashEngine`` steps through."""
    rounds: List[int] = []
    step = ColumnarCrashEngine.step

    def spy(engine: ColumnarCrashEngine, round_no: int) -> None:
        rounds.append(round_no)
        step(engine, round_no)

    monkeypatch.setattr(ColumnarCrashEngine, "step", spy)
    return rounds


def _outcome(seed: int, events: Any, kernel: str, **knobs: Any) -> Dict:
    """The result minus its trace, or the error; plus the (partial)
    trace's shared events when the run is traced."""
    adversary = Schedule.of(16, events).compile(sparse_ids(16))
    try:
        run = run_renaming(
            "balls-into-leaves", sparse_ids(16), seed=seed,
            adversary=adversary, check=False, kernel=kernel, **knobs,
        )
    except ReproError as error:
        partial = getattr(error, "partial_trace", None)
        return {
            "error": f"{type(error).__name__}: {error}",
            "events": None if partial is None else shared_events(partial),
        }
    return {
        "result": dataclasses.replace(run.result, trace=None),
        "reports": [violation.render() for violation in run.violations],
        "events": None if run.trace is None else shared_events(run.trace),
    }


class TestFixedPointStop:
    """The columnar kernel's livelock stop (``ColumnarCrashEngine``
    reports a fixed point; ``ColumnarKernel.run`` raises at once)."""

    @pytest.mark.parametrize("pin", sorted(LIVELOCKS))
    def test_a_proven_livelock_stops_within_two_phases(self, pin, steps):
        seed, events = LIVELOCKS[pin]
        want = _outcome(seed, events, "reference")
        assert want["error"].startswith("RoundLimitExceeded: ")
        assert _outcome(seed, events, "columnar") == want
        # The state at round 5 recurs at round 7, and round 6 draws no
        # coin with a real choice.
        assert steps == list(range(1, 8))

    def test_an_adversary_yet_to_act_keeps_every_round(self, steps):
        # The state freezes by round 5, but a silent crash at round 40
        # breaks the livelock: the run ends at round 41.
        seed, events = FROZEN
        events = events + (CrashEvent(40, 4, ()),)
        want = _outcome(seed, events, "reference")
        assert want["result"].rounds == 41
        assert _outcome(seed, events, "columnar") == want
        assert steps == list(range(1, 42))

    def test_an_adversary_that_never_says_it_is_done_keeps_every_round(
        self, steps
    ):
        seed, events = FROZEN
        with mock.patch.object(
            ScheduledAdversary, "last_fault_round", return_value=None
        ):
            want = _outcome(seed, events, "reference")
            assert _outcome(seed, events, "columnar") == want
        assert len(steps) == 110

    @pytest.mark.parametrize("pin", sorted(LIVELOCKS))
    def test_a_monitored_run_keeps_every_round(self, pin, steps):
        seed, events = LIVELOCKS[pin]
        want = _outcome(seed, events, "reference", monitor="cheap")
        assert _outcome(seed, events, "columnar", monitor="cheap") == want
        if pin == "frozen":
            # The progress monitor stops it at round 12 on both kernels.
            assert "round 12" in want["error"] and len(steps) == 12
        else:
            assert len(steps) == 110

    @pytest.mark.parametrize("pin", sorted(LIVELOCKS))
    def test_a_traced_run_keeps_every_round(self, pin, steps):
        seed, events = LIVELOCKS[pin]
        want = _outcome(seed, events, "reference", trace="full")
        got = _outcome(seed, events, "columnar", trace="cheap")
        assert got == want and got["events"]
        assert len(steps) == 110

    def test_half_split_declares_its_last_strike(self, steps):
        # The known halt-on-name livelock: two victims in each of rounds
        # 1, 3, 5 and 7, then one ball runs alone and never names.
        adversary = AdversarySpec.parse(
            "half-split:victims_per_round=2,last_round=9"
        ).build(1)
        assert adversary.last_fault_round() == 7
        with pytest.raises(RoundLimitExceeded) as caught:
            run_renaming(
                "balls-into-leaves", sparse_ids(396), seed=1,
                adversary=adversary, halt_on_name=True, kernel="columnar",
            )
        assert (caught.value.limit, caught.value.alive) == (2390, 1)
        assert len(steps) == 9
