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
differential suites).  A trial's result, metrics and cheap trace are
not built here: :meth:`StackedCellRun.record` hands its per-ball columns
and per-round rows to :class:`~repro.sim.record.TrialRecord`, the same
decoder the columnar kernel fills.  Which runs may stack is decided by
:func:`~repro.sim.kernel.kernel_rejection`.

NumPy is optional: without it :func:`vectorized_available` is False,
``auto`` keeps using the columnar engine, and pinning
``kernel="vectorized"`` raises :class:`~repro.errors.KernelUnsupported`
with an install hint.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.adversary.certification import certification_failure
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
from repro.sim.record import TrialRecord
from repro.sim.runner import default_round_limit
from repro.sim.trace import Trace

if HAVE_NUMPY:
    import numpy as np


def vectorized_available() -> bool:
    """True when the optional NumPy extra is importable."""
    return HAVE_NUMPY


class StackedCellRun:
    """Outcome of one stacked cell: per-trial results, columnar layout.

    The batch layer reads the flat arrays directly, so a 100-trial cell
    never builds what it does not need; :meth:`record` gives one trial's
    :class:`~repro.sim.record.TrialRecord`, the decoder the columnar
    kernel uses too, for its exact result, metrics and cheap trace.
    :meth:`error` turns a trial the stack ended early — past the round
    limit, or stopped by the stall monitor — back into the exception the
    scalar loop raises.
    """

    def __init__(self, engine, monitor=None) -> None:
        self._engine = engine
        self._monitor = monitor
        self.labels = engine.labels
        self.n = n = engine.n
        self.trials = T = engine.trials
        self.rounds = engine.rounds
        self.limit = engine.max_rounds
        self.decisions = engine.decision.reshape(T, n)
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
        named = np.where(self.crashed, -1, engine.round_named.reshape(T, n))
        #: (T,) latest naming round of a correct ball (None = none named).
        self.last_round_named: List[Optional[int]] = [
            None if r < 0 else r for r in named.max(axis=1).tolist()
        ]

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

    def record(self, t: int) -> TrialRecord:
        """Trial ``t``'s rows and per-ball columns, as the columnar engine
        keeps them (None for the -1 sentinels; the stacked engine applies
        no omission)."""
        n = self.n
        rounds = int(self.rounds[t])
        engine = self._engine

        def per_ball(column):
            return [
                None if v < 0 else v for v in column[t * n : (t + 1) * n].tolist()
            ]

        def per_round(rows):
            return rows[:rounds, t].tolist()

        return TrialRecord(
            self.labels,
            per_ball(engine.decision),
            per_ball(engine.round_crashed),
            per_ball(engine.round_named),
            per_ball(engine.round_halted),
            per_round(self._sent),
            per_round(self._delivered),
            per_round(self._crashes),
            per_round(self._alive),
            per_round(self._running),
            [0] * rounds,
            [()] * rounds,
        )

    def trace(self, t: int) -> Trace:
        """Trial ``t``'s cheap trace, decoded from the stack's arrays when
        first read: the per-event objects are only built for trials whose
        timeline is actually read."""
        return Trace(lambda trace: self.record(t).write_trace(trace))

    def check_trial(self, t: int) -> None:
        """Renaming-spec check of one trial with the scalar wording."""
        check_renaming(self.record(t).result(), RenamingSpec(n=self.n))

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
    return StackedCellRun(engine, monitor=observer)


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

    def run(self, request: KernelRequest) -> KernelRun:
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
        record = cell.record(0)
        if request.trace is not None:
            record.write_trace(request.trace)
        error = cell.error(0)
        if error is not None:
            raise error
        return KernelRun(
            result=record.result(request.trace),
            last_round_named=record.last_round_named(),
            phase_stats=[],
            kernel=self.name,
            violations=cell.violations(0),
        )
