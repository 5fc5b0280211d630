"""The columnar kernel: BiL-family runs as flat-array passes.

Wraps the engines of :mod:`repro.core.columnar` in the
:class:`~repro.sim.kernel.SimulationKernel` interface: sequences the
lock-step rounds, then decodes the engine's per-ball columns and
per-round rows through :class:`~repro.sim.record.TrialRecord`, the one
decoder both fast kernels share, into the same per-round
:class:`~repro.sim.metrics.RoundMetrics` and
:class:`~repro.sim.simulator.SimulationResult` the reference engine
builds — bit-for-bit, as asserted by the differential suite.

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
(``trace="cheap"``) stay on the fast path: the record decodes them
after the loop, in a ``finally`` so that a failed run's partial trace
holds every round the engine completed, event for event what a stacked
trial decodes, and the differential suite pins that they project onto
the same shared event schema as the reference engine's full stream.

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
from repro.errors import RoundLimitExceeded
from repro.sim.kernel import KernelRequest, KernelRun, SimulationKernel
from repro.sim.record import TrialRecord


class ColumnarKernel(SimulationKernel):
    """Flat-array fast path for Balls-into-Leaves sweeps."""

    name = "columnar"

    def run(self, request: KernelRequest) -> KernelRun:
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
        round_no = 0
        try:
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
                    # The engine has recorded the stopping round, as the
                    # reference and stacked engines do, so a stalled run's
                    # partial trace ends on the same round everywhere.
                    _abort_on_deadlock(monitor)
                elif engine.fixed_point and request.trace is None:
                    # A proven livelock: every later phase repeats this
                    # one, so the run can only end in this error.  Nobody
                    # watches the rounds in between, so skipping them is
                    # unobservable.
                    raise RoundLimitExceeded(request.max_rounds, engine.running_count)
        finally:
            # Decoded whether or not the run completed: a failed run's
            # partial trace holds every round the engine finished.
            record = _record(engine)
            if request.trace is not None:
                record.write_trace(request.trace)
        return KernelRun(
            result=record.result(request.trace),
            last_round_named=record.last_round_named(),
            phase_stats=[],
            kernel=self.name,
            violations=[] if monitor is None else monitor.violations,
        )


def _record(engine) -> TrialRecord:
    """The engine's run so far as the record both fast kernels decode."""
    return TrialRecord(
        engine.labels,
        engine.decision,
        engine.round_crashed,
        engine.round_named,
        engine.round_halted,
        engine.round_sent,
        engine.round_delivered,
        engine.round_crashes,
        engine.round_alive,
        engine.round_running,
        engine.round_omissions,
        engine.round_omitters,
    )


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
