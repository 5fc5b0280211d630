"""The columnar kernel: BiL-family runs as flat-array passes.

Wraps the engines of :mod:`repro.core.columnar` in the
:class:`~repro.sim.kernel.SimulationKernel` interface: sequences the
lock-step rounds, produces the same per-round
:class:`~repro.sim.metrics.RoundMetrics` the reference engine records,
and assembles an identical :class:`~repro.sim.simulator.SimulationResult`
— bit-for-bit, as asserted by the differential suite.

Every run executes on :class:`~repro.core.columnar.ColumnarCrashEngine`:
a failure-free run is the crash engine with no adversary (one receiver
class per run, advanced in place), and a run under a *certified*
adversary reproduces partial deliveries, receiver equivalence classes,
and the announced-termination lifecycle (halt-on-name) as per-ball
status columns and per-round crash masks.

This kernel applies both fault families
(:data:`~repro.adversary.base.FAULT_FAMILIES`), ``crash`` and
``omission`` — an omitting sender folds into the same partial-delivery
camp machinery as a crash victim, without being marked crashed.

Certified adversaries are the strategies whose plans are a pure function
of the public :class:`~repro.adversary.base.AdversaryContext` fields
(round, running/alive sets, outbox payloads, own RNG), declared where the
strategy is written via the
:func:`~repro.adversary.certification.certified` decorator.  Which runs
this kernel accepts — and why it rejects the rest (uncertified adversary
types, ``full`` traces, phase statistics, ``monitor="full"``, the
paper-verbatim ``faithful`` view store, non-BiL algorithms) — is decided
by :func:`~repro.sim.kernel.kernel_rejection`.  Cheap traces
(``trace="cheap"``) stay on the fast path: each round's
crash/omit/name/halt deltas and the round aggregates are appended
straight from the engine's flat arrays — event for event what the
stacked engine decodes — and the differential suite pins that they
project onto the same shared event schema as the reference engine's
full stream.

A proven livelock ends early.  When the engine reports a fixed point
(:attr:`~repro.core.columnar.ColumnarCrashEngine.fixed_point`: a phase
from round 4 on that drew no coin with a real choice, applied no fault
and ended in its own starting state, under an adversary whose
:meth:`~repro.adversary.base.Adversary.last_fault_round` has passed),
every later phase repeats it, so the run can only end in
``RoundLimitExceeded(max_rounds, running)``, and the kernel raises that
at once.  It stops only when neither a monitor nor a trace watches the
rounds it skips (their per-round observations, a progress violation or
the partial trace, would be lost), so every output is the one the full
run gives.  The reference kernel, the stacked engine and the engine
loop of ``tail``'s chunks play every round.
"""

from __future__ import annotations

from repro.core.instrumentation import TIMERS
from repro.errors import ConfigurationError, RoundLimitExceeded
from repro.sim.kernel import KernelRequest, KernelRun, SimulationKernel
from repro.sim.metrics import RoundMetrics, SimulationMetrics
from repro.sim.simulator import SimulationResult


class ColumnarKernel(SimulationKernel):
    """Flat-array fast path for Balls-into-Leaves sweeps."""

    name = "columnar"

    def run(self, request: KernelRequest) -> KernelRun:
        n = request.n
        # Same validation the reference Simulation constructor applies, so
        # pinning the kernel never relaxes it.
        if not 0 <= request.crash_budget < n:
            raise ConfigurationError(
                f"crash budget must satisfy 0 <= t < n; "
                f"got t={request.crash_budget}, n={n}"
            )
        from repro.core.columnar import ColumnarCrashEngine

        timer_started = TIMERS.start()
        engine = ColumnarCrashEngine(
            request.ids,
            seed=request.seed,
            policy=request.policy,
            halt_on_name=request.halt_on_name,
            adversary=request.adversary,
            crash_budget=request.crash_budget,
        )
        TIMERS.stop("seeding", timer_started)
        monitor = _build_monitor(request)
        metrics = SimulationMetrics()
        round_no = 0
        while engine.running_count:
            if round_no >= request.max_rounds:
                raise RoundLimitExceeded(request.max_rounds, engine.running_count)
            round_no += 1
            timer_started = TIMERS.start()
            engine.step(round_no)
            TIMERS.stop("movement", timer_started)
            if monitor is not None:
                from repro.monitor.invariants import observe_crash_engine

                timer_started = TIMERS.start()
                observe_crash_engine(monitor, engine, round_no)
                TIMERS.stop("monitor", timer_started)
            metrics.record(
                RoundMetrics(
                    round_no=round_no,
                    messages_sent=engine.last_sent,
                    messages_delivered=engine.last_delivered,
                    crashes=engine.last_crashes,
                    alive_after=engine.last_alive,
                    running_after=engine.last_running,
                    omissions=engine.last_omissions,
                )
            )
            if request.trace is not None:
                _record_cheap_round(
                    request.trace,
                    engine,
                    round_no,
                    sent=engine.last_sent,
                    crashes=engine.last_crashes,
                    running=engine.last_running,
                    omitters=engine.last_omitters,
                )
            # The stopping round is recorded first, as on the reference
            # and stacked engines, so a stalled run's partial trace ends
            # on the same round everywhere.
            if monitor is not None:
                _abort_on_deadlock(monitor)
            elif engine.fixed_point and request.trace is None:
                # A proven livelock: every later phase repeats this one,
                # so the run can only end in this error.  Nobody watches
                # the rounds in between, so skipping them is unobservable.
                raise RoundLimitExceeded(request.max_rounds, engine.running_count)
        labels = engine.labels
        decisions = {
            pid: engine.decision[j] for j, pid in enumerate(labels)
        }
        crashed = frozenset(
            pid for j, pid in enumerate(labels) if engine.crashed[j]
        )
        halted = frozenset(
            pid for j, pid in enumerate(labels) if engine.halted[j]
        )
        result = SimulationResult(
            rounds=round_no,
            decisions=decisions,
            crashed=crashed,
            halted=halted,
            metrics=metrics,
            trace=request.trace,
            participants=frozenset(labels),
        )
        return KernelRun(
            result=result,
            last_round_named=engine.last_round_named(),
            phase_stats=[],
            kernel=self.name,
            violations=[] if monitor is None else monitor.violations,
        )


def _record_cheap_round(
    trace, engine, round_no: int, *, sent: int, crashes: int, running: int,
    omitters=(),
) -> None:
    """Append one round's cheap events from the engine's flat arrays.

    Event order within a round is fixed (crash, omit, name, halt, round)
    and pid order within a kind is label-rank order — the
    ``shared_events`` projection sorts, so this only pins the serialized
    layout, not equivalence with the reference stream.
    """
    labels = engine.labels
    for j, crashed_at in enumerate(engine.round_crashed):
        if crashed_at == round_no:
            trace.record(round_no, "crash", pid=labels[j])
    for j in omitters:
        trace.record(round_no, "omit", pid=labels[j])
    for j, named_at in enumerate(engine.round_named):
        if named_at == round_no:
            trace.record(round_no, "name", pid=labels[j], name=engine.decision[j])
    for j, halted_at in enumerate(engine.round_halted):
        if halted_at == round_no:
            trace.record(
                round_no, "halt", pid=labels[j], decision=engine.decision[j]
            )
    trace.record(round_no, "round", sent=sent, crashes=crashes, running=running)


def _build_monitor(request: KernelRequest):
    """A fresh :class:`~repro.monitor.invariants.RunMonitor`, or None."""
    if request.monitor == "off":
        return None
    from repro.monitor.invariants import RunMonitor
    from repro.tree.topology import cached_topology

    return RunMonitor(
        sorted(request.ids),
        cached_topology(request.n).arrays(),
        halt_on_name=request.halt_on_name,
    )


def _abort_on_deadlock(monitor) -> None:
    """Stop a provably wedged run now instead of spinning to the limit."""
    if monitor.deadlocked:
        from repro.errors import MonitorViolation

        raise MonitorViolation(monitor.violations)
