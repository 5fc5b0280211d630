"""Unit tests for the lock-step engine, its crash semantics and its one
delivery path for crash and omission faults."""

from __future__ import annotations

import itertools
import random
from typing import Any, Mapping

import pytest

from repro.adversary.base import (
    Adversary,
    FaultBudget,
    FaultPlan,
    clamp_fault_plan,
)
from repro.adversary.scheduled import ScheduledAdversary, ScheduledCrash
from repro.errors import ConfigurationError, RoundLimitExceeded
from repro.sim.process import SyncProcess
from repro.sim.simulator import Simulation
from repro.sim.trace import Trace


class EchoProcess(SyncProcess):
    """Broadcasts its pid and records every inbox; halts after `life` rounds."""

    def __init__(self, pid, life=3):
        super().__init__(pid)
        self.inboxes = []
        self._life = life

    def compose(self, round_no):
        return ("echo", self.pid, round_no)

    def deliver(self, round_no, inbox: Mapping[Any, Any]):
        self.inboxes.append(dict(inbox))
        if round_no >= self._life:
            self.decide(self.pid)
            self.halt()


def make_sim(n=4, life=3, **kwargs):
    procs = [EchoProcess(i, life) for i in range(n)]
    return procs, Simulation(procs, **kwargs)


class TestLockStep:
    def test_runs_until_all_halt(self):
        _, sim = make_sim(life=3)
        result = sim.run()
        assert result.rounds == 3
        assert len(result.halted) == 4
        assert not result.crashed

    def test_full_delivery_without_crashes(self):
        procs, sim = make_sim(n=3, life=1)
        sim.run()
        for proc in procs:
            assert set(proc.inboxes[0]) == {0, 1, 2}

    def test_self_delivery_included(self):
        procs, sim = make_sim(n=2, life=1)
        sim.run()
        assert procs[0].inboxes[0][0] == ("echo", 0, 1)

    def test_round_limit_enforced(self):
        class Forever(EchoProcess):
            def deliver(self, round_no, inbox):
                pass

        sim = Simulation([Forever(0)], max_rounds=5)
        with pytest.raises(RoundLimitExceeded):
            sim.run()

    def test_requires_processes(self):
        with pytest.raises(ConfigurationError):
            Simulation([])

    def test_rejects_duplicate_pids(self):
        with pytest.raises(ValueError):
            Simulation([EchoProcess(1), EchoProcess(1)])

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError):
            Simulation([EchoProcess(0)], crash_budget=1)  # t < n required

    def test_metrics_count_messages(self):
        _, sim = make_sim(n=3, life=2)
        result = sim.run()
        assert result.metrics.total_rounds == 2
        assert result.metrics.total_messages_sent == 6
        assert result.metrics.total_messages_delivered == 18


class TestCrashSemantics:
    def test_silent_crash_removes_message_everywhere(self):
        adversary = ScheduledAdversary([ScheduledCrash(1, 0, receivers="none")])
        procs, sim = make_sim(n=4, life=2, adversary=adversary)
        result = sim.run()
        assert result.crashed == frozenset({0})
        for proc in procs[1:]:
            assert 0 not in proc.inboxes[0]

    def test_partial_delivery_splits_receivers(self):
        adversary = ScheduledAdversary([ScheduledCrash(1, 0, receivers=[1])])
        procs, sim = make_sim(n=4, life=2, adversary=adversary)
        sim.run()
        assert 0 in procs[1].inboxes[0]
        assert 0 not in procs[2].inboxes[0]
        assert 0 not in procs[3].inboxes[0]

    def test_crashed_process_stops_for_good(self):
        adversary = ScheduledAdversary([ScheduledCrash(1, 0, receivers="all")])
        procs, sim = make_sim(n=3, life=3, adversary=adversary)
        sim.run()
        # Victim delivered in no later round.
        assert len(procs[0].inboxes) == 0
        # Later rounds never contain the victim's messages.
        assert all(0 not in inbox for inbox in procs[1].inboxes[1:])

    def test_budget_clamps_plan(self):
        adversary = ScheduledAdversary(
            [ScheduledCrash(1, pid, receivers="none") for pid in range(4)]
        )
        _, sim = make_sim(n=4, life=2, adversary=adversary, crash_budget=2)
        result = sim.run()
        assert len(result.crashed) == 2

    def test_crash_of_unknown_pid_is_ignored(self):
        adversary = ScheduledAdversary([ScheduledCrash(1, "ghost", receivers="none")])
        _, sim = make_sim(n=2, life=1, adversary=adversary)
        result = sim.run()
        assert not result.crashed

    def test_trace_records_crash_and_halt(self):
        trace = Trace()
        adversary = ScheduledAdversary([ScheduledCrash(1, 0, receivers="none")])
        _, sim = make_sim(n=3, life=2, adversary=adversary, trace=trace)
        sim.run()
        assert len(trace.events("crash")) == 1
        assert trace.events("crash")[0].data["pid"] == 0
        assert len(trace.events("halt")) == 2

    def test_correct_set_excludes_crashed(self):
        adversary = ScheduledAdversary([ScheduledCrash(1, 2, receivers="none")])
        _, sim = make_sim(n=4, life=2, adversary=adversary)
        result = sim.run()
        assert result.correct == frozenset({0, 1, 3})


class CountingAdversary(Adversary):
    """Silently crashes ``victim`` in round 1 and records every round it
    is consulted in."""

    def __init__(self, victim, families=("crash",)):
        super().__init__(seed=0)
        self._victim = victim
        self._families = families
        self.consulted = []

    def plan(self, ctx):
        self.consulted.append(ctx.round_no)
        return self.silent([self._victim]) if ctx.round_no == 1 else {}

    def fault_families(self):
        return self._families


class TestBudgetExhaustion:
    """Past the crash budget only adversaries with another family to
    exercise are consulted; the cross-kernel RNG contract relies on
    crash-only ones drawing nothing more."""

    def test_crash_only_adversary_is_not_consulted_past_the_budget(self):
        adversary = CountingAdversary(victim=0)
        _, sim = make_sim(n=3, life=3, adversary=adversary, crash_budget=1)
        sim.run()
        assert adversary.consulted == [1]

    def test_omission_adversary_is_consulted_past_the_budget(self):
        adversary = CountingAdversary(victim=0, families=("crash", "omission"))
        _, sim = make_sim(n=3, life=3, adversary=adversary, crash_budget=1)
        result = sim.run()
        assert adversary.consulted == [1, 2, 3]
        assert result.crashed == frozenset({0})


class ScriptedFaults(Adversary):
    """Returns one fixed fault plan in round 1 and declares both families."""

    def __init__(self, plan, omission_budget=None):
        super().__init__(seed=0)
        self._plan = plan
        self._budget = FaultBudget(omissions=omission_budget)

    def plan(self, ctx):
        return {}

    def plan_faults(self, ctx):
        return self._plan if ctx.round_no == 1 else FaultPlan()

    def fault_families(self):
        return ("crash", "omission")

    def fault_budget(self):
        return self._budget


class KeepingProcess(SyncProcess):
    """Broadcasts (or stays silent) for one round and keeps the inbox
    object it was handed, not a copy."""

    def __init__(self, pid, speaks):
        super().__init__(pid)
        self.speaks = speaks
        self.inbox = None

    def compose(self, round_no):
        return ("msg", self.pid) if self.speaks else None

    def deliver(self, round_no, inbox):
        self.inbox = inbox
        self.decide(self.pid)
        self.halt()


class TestOneDeliveryPath:
    """Crash and omission faults share one delivery rule, link by link.

    Seeded-random sweep over one-round fault plans: whatever plan the
    adversary returns, once the shared clamp has applied the budgets,
    every receiver's inbox is exactly the per-link model — a crashing
    sender reaches only the receivers its crash plan kept, an omitted
    link drops, every other message arrives — and two receivers share
    one inbox dict exactly when they heard from the same senders (the
    shared-view store memoizes on inbox identity).
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_inboxes_follow_the_per_link_rule(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 10)
        pids = list(range(n))
        procs = [KeepingProcess(pid, speaks=rng.random() < 0.8) for pid in pids]
        crash_budget = rng.randrange(n)
        omission_budget = rng.choice([None, 0, 2, 5])
        drawn = FaultPlan(
            crashes={
                victim: frozenset(rng.sample(pids, rng.randrange(n + 1)))
                for victim in rng.sample(pids, rng.randrange(n))
            },
            omissions={
                sender: frozenset(rng.sample(pids, rng.randrange(1, n + 1)))
                for sender in rng.sample(pids, rng.randrange(n + 1))
            },
        )
        sim = Simulation(
            procs,
            adversary=ScriptedFaults(drawn, omission_budget),
            crash_budget=crash_budget,
        )
        sim.step()

        fault = clamp_fault_plan(
            drawn,
            alive=pids,
            budget_remaining=crash_budget,
            budget=FaultBudget(omissions=omission_budget),
        )
        crashes, omissions = fault.crashes, fault.omissions
        assert sim.crashed == frozenset(crashes)
        senders = [proc.pid for proc in procs if proc.speaks]
        receivers = [pid for pid in pids if pid not in crashes]

        def reaches(sender, receiver):
            kept = sender not in crashes or receiver in crashes[sender]
            return kept and receiver not in omissions.get(sender, ())

        inboxes = {pid: procs[pid].inbox for pid in receivers}
        for receiver, inbox in inboxes.items():
            expected = {s: ("msg", s) for s in senders if reaches(s, receiver)}
            assert inbox == expected
            # The clamp never masks a self-link.
            assert procs[receiver].speaks == (receiver in inbox)
        for a, b in itertools.combinations(receivers, 2):
            same_senders = inboxes[a].keys() == inboxes[b].keys()
            assert (inboxes[a] is inboxes[b]) == same_senders
        for victim in crashes:
            assert procs[victim].inbox is None

        (metrics,) = sim.metrics.rounds
        dropped = {s: omissions[s] & set(receivers) for s in senders if s in omissions}
        assert metrics.messages_sent == len(senders)
        assert metrics.messages_delivered == sum(map(len, inboxes.values()))
        assert metrics.omissions == sum(map(len, dropped.values()))
        assert metrics.crashes == len(crashes)
        assert sim.silenced_rounds == {s: 1 for s, links in dropped.items() if links}


class TestObservers:
    def test_observer_called_each_round(self):
        seen = []
        _, sim = make_sim(n=2, life=3)
        sim2 = Simulation(
            [EchoProcess(i, 3) for i in range(2)],
            observers=[lambda s, r: seen.append(r)],
        )
        sim2.run()
        assert seen == [1, 2, 3]

    def test_step_returns_false_when_done(self):
        _, sim = make_sim(n=1, life=1)
        assert not sim.step()  # life=1: halts in round 1
        assert not sim.step()  # idempotent afterwards


class TestCorrectSet:
    """`SimulationResult.correct` must cover *all* participants.

    Regression: it used to derive the correct set from the decision keys,
    so a hand-built result that dropped a non-decider from ``decisions``
    silently dropped it from the correct set too.
    """

    def test_crash_before_deciding_still_counted_as_participant(self):
        from repro.sim.metrics import SimulationMetrics
        from repro.sim.simulator import SimulationResult

        adversary = ScheduledAdversary([ScheduledCrash(1, 2, receivers="none")])
        _, sim = make_sim(n=4, life=3, adversary=adversary)
        result = sim.run()
        # The victim crashed in round 1, well before its life-3 decision.
        assert result.decisions[2] is None
        assert result.participants == frozenset(range(4))
        assert result.correct == result.participants - result.crashed
        # A result rebuilt without the undecided victim in `decisions`
        # (as external tooling does) must report the same correct set.
        rebuilt = SimulationResult(
            rounds=result.rounds,
            decisions={pid: name for pid, name in result.decisions.items() if name is not None},
            crashed=result.crashed,
            halted=result.halted,
            metrics=SimulationMetrics(),
            participants=result.participants,
        )
        assert rebuilt.correct == result.correct

    def test_correct_survivor_that_never_decided_is_not_dropped(self):
        from repro.sim.metrics import SimulationMetrics
        from repro.sim.simulator import SimulationResult

        result = SimulationResult(
            rounds=1,
            decisions={"a": 0},  # "c" never decided and was left out entirely
            crashed=frozenset({"b"}),
            halted=frozenset({"a"}),
            metrics=SimulationMetrics(),
            participants=frozenset({"a", "b", "c"}),
        )
        assert result.correct == frozenset({"a", "c"})

    def test_decisions_keys_remain_the_fallback(self):
        from repro.sim.metrics import SimulationMetrics
        from repro.sim.simulator import SimulationResult

        result = SimulationResult(
            rounds=1,
            decisions={"a": 0, "b": None},
            crashed=frozenset({"b"}),
            halted=frozenset({"a"}),
            metrics=SimulationMetrics(),
        )
        assert result.correct == frozenset({"a"})
