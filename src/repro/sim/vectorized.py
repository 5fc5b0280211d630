"""The vectorized kernel: a stacked cell of trials as one array program.

Wraps :class:`repro.core.vectorized.VectorizedCrashEngine` in two shapes:

* :class:`VectorizedKernel` — the :class:`~repro.sim.kernel.SimulationKernel`
  face, so ``kernel="vectorized"`` works anywhere a kernel name does
  (``run_renaming``, trial specs, the CLI).  A single run is just a
  one-trial stack; the payoff comes from the second shape.
* :func:`run_stacked_cell` — the cell-granular entry point used by
  :mod:`repro.sim.batch`: all ``T`` trials of one scenario-matrix cell —
  failure-free, or each under its own certified crash adversary —
  execute as one vectorized pass, amortizing the interpreter, the
  topology, and the RNG machinery across the whole cell instead of
  paying them per trial.  ``monitor="cheap"`` rides along as the
  :class:`~repro.monitor.stacked.StackedMonitor`.

Everything the stack produces is bit-for-bit what the columnar (and
hence reference) kernel produces trial by trial — same
:class:`~repro.sim.simulator.SimulationResult`, same metrics rows, same
monitor reports, same tables — which is what lets ``auto`` batches
upgrade cells to this path without observable change (asserted by the
differential suites).

NumPy is optional: without it :func:`vectorized_available` is False,
``auto`` keeps using the columnar engine, and pinning
``kernel="vectorized"`` raises :class:`~repro.errors.KernelUnsupported`
with an install hint.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from repro.adversary.certification import certification_failure
from repro.core.config import BallsIntoLeavesConfig
from repro.core.instrumentation import TIMERS
from repro.core.mt19937 import HAVE_NUMPY
from repro.errors import (
    ConfigurationError,
    KernelUnsupported,
    MonitorViolation,
    RoundLimitExceeded,
)
from repro.sim.checker import RenamingSpec, check_renaming
from repro.sim.kernel import KernelRequest, KernelRun, SimulationKernel
from repro.sim.metrics import RoundMetrics, SimulationMetrics
from repro.sim.runner import default_round_limit
from repro.sim.simulator import SimulationResult
from repro.sim.trace import Trace

if HAVE_NUMPY:
    import numpy as np


def vectorized_available() -> bool:
    """True when the optional NumPy extra is importable."""
    return HAVE_NUMPY


class StackedCellRun:
    """Outcome of one stacked cell: per-trial results, columnar layout.

    Scalar accessors (:meth:`result`, :meth:`metrics`, :meth:`trace`)
    materialize the exact per-trial objects of the scalar kernels; the
    batch layer reads the flat arrays directly so a 100-trial cell never
    builds what it does not need.  :meth:`error` turns a trial the stack
    ended early — past the round limit, or stopped by the stall monitor —
    back into the exception the scalar loop raises.
    """

    def __init__(self, engine, seeds: Sequence[int], monitor=None) -> None:
        self._engine = engine
        self._monitor = monitor
        self.seeds = list(seeds)
        self.labels = engine.labels
        self.n = n = engine.n
        self.trials = T = engine.trials
        self.rounds = engine.rounds
        self.limit = engine.max_rounds
        self.decisions = engine.decision.reshape(T, n)
        self.round_named = engine.round_named.reshape(T, n)
        self.crashed = engine.crashed.reshape(T, n)
        self.halted = engine.halted.reshape(T, n)
        #: (T,) crash counts — the batch layer's ``failures`` column.
        self.failures = self.crashed.sum(axis=1)

        def stack(rows):
            return (
                np.stack(rows)
                if rows
                else np.zeros((0, T), dtype=np.int64)
            )

        self._sent = stack(engine.round_sent)
        self._delivered = stack(engine.round_delivered)
        self._crashes = stack(engine.round_crashes)
        self._alive = stack(engine.round_alive)
        self._running = stack(engine.round_running)
        # Inactive trials contribute zero rows, so whole-column sums are
        # per-trial totals directly.
        self.messages_sent = self._sent.sum(axis=0, dtype=np.int64)
        self.messages_delivered = self._delivered.sum(axis=0, dtype=np.int64)
        self._participants = frozenset(self.labels)

    def last_round_named(self, t: int) -> Optional[int]:
        """Latest naming round of a correct process of trial ``t``."""
        return self._engine.last_round_named(t)

    def violations(self, t: int) -> list:
        """Trial ``t``'s monitor findings ([] when monitoring was off)."""
        if self._monitor is None:
            return []
        return self._monitor.violations(t)

    def error(self, t: int) -> Optional[Exception]:
        """The exception the scalar loop raises for trial ``t``, if any:
        :class:`RoundLimitExceeded` for an overrun trial,
        :class:`MonitorViolation` for one the stall monitor stopped."""
        engine = self._engine
        if bool(engine.overrun[t]):
            return RoundLimitExceeded(self.limit, int(engine.running_at_limit[t]))
        if bool(engine.stopped[t]):
            return MonitorViolation(self.violations(t))
        return None

    def metrics(self, t: int) -> SimulationMetrics:
        """Trial ``t``'s per-round metrics, as the columnar loop records."""
        metrics = SimulationMetrics()
        for r in range(int(self.rounds[t])):
            metrics.record(
                RoundMetrics(
                    round_no=r + 1,
                    messages_sent=int(self._sent[r, t]),
                    messages_delivered=int(self._delivered[r, t]),
                    crashes=int(self._crashes[r, t]),
                    alive_after=int(self._alive[r, t]),
                    running_after=int(self._running[r, t]),
                )
            )
        return metrics

    def result(self, t: int) -> SimulationResult:
        """Trial ``t``'s :class:`SimulationResult`, columnar-identical."""
        row = self.decisions[t].tolist()
        decisions = {
            pid: (name if name >= 0 else None)
            for pid, name in zip(self.labels, row)
        }
        crashed_row = self.crashed[t]
        halted_row = self.halted[t]
        return SimulationResult(
            rounds=int(self.rounds[t]),
            decisions=decisions,
            crashed=frozenset(
                pid for j, pid in enumerate(self.labels) if crashed_row[j]
            ),
            halted=frozenset(
                pid for j, pid in enumerate(self.labels) if halted_row[j]
            ),
            metrics=self.metrics(t),
            trace=None,
            participants=self._participants,
        )

    def trace(self, t: int, sink: Optional[Trace] = None) -> Trace:
        """Trial ``t``'s cheap trace, materialized from the stack's arrays.

        Zero per-round capture cost: crash/naming/halting rounds persist
        per ball and the aggregates per round (the rows :meth:`metrics`
        reads), so the event stream is reconstructed post-hoc — and
        lazily, unless a ``sink`` is supplied: the per-event objects are
        only built for trials whose timeline is actually read.  Carries
        the columnar cheap-trace vocabulary minus the per-round ``pos``
        snapshots (the stacked engine's positions are transient).
        """
        if sink is None:
            return Trace(lambda trace: self._decode_trace(t, trace))
        self._decode_trace(t, sink)
        return sink

    def _decode_trace(self, t: int, trace: Trace) -> None:
        n = self.n
        labels = self.labels
        crashed = self._engine.round_crashed.reshape(self.trials, n)[t].tolist()
        named = self.round_named[t].tolist()
        halted = self._engine.round_halted.reshape(self.trials, n)[t].tolist()
        decisions = self.decisions[t].tolist()
        crashed_by: dict = {}
        named_by: dict = {}
        halted_by: dict = {}
        for j in range(n):
            if crashed[j] >= 0:
                crashed_by.setdefault(crashed[j], []).append(j)
            if named[j] >= 0:
                named_by.setdefault(named[j], []).append(j)
            if halted[j] >= 0:
                halted_by.setdefault(halted[j], []).append(j)
        for r in range(1, int(self.rounds[t]) + 1):
            for j in crashed_by.get(r, ()):
                trace.record(r, "crash", pid=labels[j])
            for j in named_by.get(r, ()):
                trace.record(r, "name", pid=labels[j], name=decisions[j])
            for j in halted_by.get(r, ()):
                trace.record(r, "halt", pid=labels[j], decision=decisions[j])
            trace.record(
                r,
                "round",
                sent=int(self._sent[r - 1, t]),
                crashes=int(self._crashes[r - 1, t]),
                running=int(self._running[r - 1, t]),
            )

    def check_trial(self, t: int) -> None:
        """Renaming-spec check of one trial with the scalar wording."""
        check_renaming(self.result(t), RenamingSpec(n=self.n))

    def spec_ok(self) -> "np.ndarray":
        """(T,) vectorized spec screen; flagged trials re-check scalar.

        A trial passes iff every correct (non-crashed) process decided a
        distinct name in ``0..n-1`` and halted — the four
        :func:`check_renaming` conditions over correct processes.
        """
        correct = ~self.crashed
        dec = self.decisions
        decided = dec >= 0
        ok = (decided | ~correct).all(axis=1)
        ok &= (~(correct & decided) | self.halted).all(axis=1)
        ok &= (~(correct & decided) | (dec < self.n)).all(axis=1)
        live = correct & decided
        tg, ti = np.nonzero(live)
        if tg.size:
            names = np.clip(dec[tg, ti], 0, self.n - 1)
            counts = np.bincount(
                tg * self.n + names, minlength=self.trials * self.n
            ).reshape(self.trials, self.n)
            ok &= (counts <= 1).all(axis=1)
        return ok

    def check(self) -> None:
        """Spec check for every trial; first violation raises scalar-worded."""
        ok = self.spec_ok()
        if bool(ok.all()):
            return
        bad = int(np.flatnonzero(~ok)[0])
        self.check_trial(bad)
        raise AssertionError(  # pragma: no cover - checker always raises
            f"vectorized spec screen flagged trial {bad} but "
            "check_renaming passed"
        )


def run_stacked_cell(
    ids: Sequence[Hashable],
    seeds: Sequence[int],
    *,
    policy: str,
    halt_on_name: bool = False,
    crash_budget: Optional[int] = None,
    max_rounds: Optional[int] = None,
    monitor: str = "off",
    adversaries: Optional[Sequence] = None,
) -> StackedCellRun:
    """Execute ``len(seeds)`` trials of one cell as one stacked pass.

    Entry ``t`` of ``adversaries`` is the already-built instance driving
    trial ``t`` (the caller owns seed-faithful construction, exactly
    like the scalar kernels); None or :class:`NoFailures` entries, or no
    ``adversaries`` at all, run failure-free.  An adversary the engine
    cannot apply (uncertified, or planning a family beyond ``crash``)
    raises :class:`~repro.errors.KernelUnsupported` instead of running
    without its faults.  ``monitor="cheap"`` attaches the stacked
    invariant monitor, which also stops a trial whose state has frozen
    (see :meth:`StackedCellRun.error`).
    """
    from repro.core.vectorized import VectorizedCrashEngine

    for adversary in adversaries or ():
        failure = certification_failure(adversary, supported=("crash",))
        if failure is not None:
            raise KernelUnsupported("vectorized", failure)
    n = len(ids)
    if crash_budget is not None and not 0 <= crash_budget < n:
        raise ConfigurationError(
            f"crash budget must satisfy 0 <= t < n; got t={crash_budget}, n={n}"
        )
    limit = max_rounds if max_rounds is not None else default_round_limit(n, crash_budget)
    engine = VectorizedCrashEngine(
        ids,
        list(seeds),
        policy=policy,
        halt_on_name=halt_on_name,
        adversaries=None if adversaries is None else list(adversaries),
        crash_budget=crash_budget if crash_budget is not None else n - 1,
        max_rounds=limit,
    )
    observer = None
    if monitor != "off":
        from repro.monitor.stacked import StackedMonitor

        observer = StackedMonitor(engine)
    # Telemetry: "movement" on the stacked path is the whole array
    # program, inclusive of the nested "twist" passes the stream bank
    # runs on demand (seeding was attributed at construction).
    timer_started = TIMERS.start()
    engine.run(observer=_timed_monitor(observer))
    TIMERS.stop("movement", timer_started)
    return StackedCellRun(engine, seeds, monitor=observer)


def _timed_monitor(observer):
    """Wrap a stacked-monitor observer so its screens report as the
    ``monitor`` telemetry stage (nested inside stacked ``movement``)."""
    if observer is None or not TIMERS.enabled:
        return observer

    def observe(engine, round_no, active):
        timer_started = TIMERS.start()
        observer(engine, round_no, active)
        TIMERS.stop("monitor", timer_started)

    return observe


class VectorizedKernel(SimulationKernel):
    """Trial-stacked NumPy fast path (single runs are a 1-trial stack)."""

    name = "vectorized"

    def rejects(self, request: KernelRequest) -> Optional[str]:
        if request.policy is None:
            return (
                f"algorithm {request.algorithm!r} is not Balls-into-Leaves-"
                "based; its broadcasts are not position announcements over "
                "a shared view"
            )
        failure = certification_failure(request.adversary, supported=("crash",))
        if failure is not None:
            return failure
        if request.trace is not None and request.trace_mode != "cheap":
            return (
                "full trace recording observes the reference engine's "
                "message-level events; cheap tracing runs stacked"
            )
        if request.collect_phase_stats:
            return "phase statistics observe the reference view store"
        if request.monitor == "full":
            return (
                "monitor='full' audits the reference engine's instrumented "
                "movement; cheap monitoring runs stacked"
            )
        from repro.core.vectorized import vectorized_rejections

        # Under cheap monitoring the stacked monitor takes over invariant
        # checking, so the engine-level rejection does not apply.
        config = BallsIntoLeavesConfig(
            path_policy=request.policy,
            view_mode=request.view_mode,
            check_invariants=(
                request.check_invariants and request.monitor == "off"
            ),
            halt_on_name=request.halt_on_name,
        )
        reasons = vectorized_rejections(config)
        if reasons:
            return "; ".join(reasons)
        return None

    def run(self, request: KernelRequest) -> KernelRun:
        n = request.n
        # Same validation the scalar kernels apply, so pinning the kernel
        # never relaxes it.
        if not 0 <= request.crash_budget < n:
            raise ConfigurationError(
                f"crash budget must satisfy 0 <= t < n; "
                f"got t={request.crash_budget}, n={n}"
            )
        cell = run_stacked_cell(
            request.ids,
            [request.seed],
            policy=request.policy,
            halt_on_name=request.halt_on_name,
            crash_budget=request.crash_budget,
            max_rounds=request.max_rounds,
            monitor=request.monitor,
            adversaries=[request.adversary],
        )
        # Decode before raising: a failed run's partial trace rides on
        # the error, as on the scalar kernels.
        if request.trace is not None:
            cell.trace(0, sink=request.trace)
        error = cell.error(0)
        if error is not None:
            raise error
        return KernelRun(
            result=cell.result(0),
            last_round_named=cell.last_round_named(0),
            phase_stats=[],
            kernel=self.name,
            violations=cell.violations(0),
        )


def cell_rejection(request: KernelRequest) -> Optional[str]:
    """Why a whole cell shaped like ``request`` cannot stack (None = it can).

    One shared gate for the batch dispatcher and the kernel selector, so
    an ``auto`` batch upgrades exactly the cells a pinned
    ``kernel="vectorized"`` would accept.
    """
    return VectorizedKernel().rejects(request)
