"""High-level entry point: run a renaming algorithm end to end.

:data:`WORKLOADS` is the one record of what an algorithm is: its
Balls-into-Leaves path policy or, for a baseline, the builder of its
reference-engine processes; the rounds a run may spend; and whether the
renaming check applies.  :func:`workload` is the lookup every entry
point asks (the runner, the reference kernel, scenario matrices, hunts,
tails and captured-failure rows), so an unknown name fails the same way
everywhere.

``run_renaming("balls-into-leaves", ids, seed=1)`` resolves the run into
a :class:`~repro.sim.kernel.KernelRequest`, selects a simulation kernel
(the columnar fast path when it models the run, the reference lock-step
engine otherwise), checks the renaming specification, and returns a
:class:`RenamingRun` with the round counts and (optionally) per-phase
tree statistics.  This is the main public API; the examples and every
experiment go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.adversary.base import Adversary
from repro.core.config import VIEW_MODES
from repro.errors import ConfigurationError
from repro.ids import Name, ProcessId
from repro.sim.checker import RenamingSpec, check_renaming
from repro.sim.kernel import KernelRequest, check_monitor_mode, select_kernel
from repro.sim.metrics import SimulationMetrics
from repro.sim.process import SyncProcess
from repro.sim.simulator import SimulationResult
from repro.sim.trace import Trace, check_trace_mode


def default_round_limit(n: int, crash_budget: Optional[int]) -> int:
    """The BiL round budget (Lemma 11: <= n fault-free phases, plus one
    phase per crash, plus slack).  One definition shared by every kernel
    path — per-trial and stacked cells must agree on the limit or a
    near-limit run could terminate on one engine and raise on the other.
    """
    budget = n - 1 if crash_budget is None else crash_budget
    return 4 * n + 2 * budget + 16


def _approx_agreement_rounds(n: int, crash_budget: int) -> int:
    from repro.baselines.approximate_agreement import seeded_rounds

    return seeded_rounds(n, crash_budget) + 4


#: ``build(ids, seed, crash_budget)``: a baseline's reference-engine processes.
ProcessBuilder = Callable[[Sequence[ProcessId], int, int], Sequence[SyncProcess]]


def _build_flood(
    ids: Sequence[ProcessId], seed: int, crash_budget: int
) -> Sequence[SyncProcess]:
    from repro.baselines.flood_consensus import build_flood_renaming

    return build_flood_renaming(ids, crash_budget=crash_budget)


def _build_approx_agreement(
    ids: Sequence[ProcessId], seed: int, crash_budget: int
) -> Sequence[SyncProcess]:
    from repro.baselines.approximate_agreement import (
        build_seeded_approx_agreement,
    )

    return build_seeded_approx_agreement(ids, seed=seed, crash_budget=crash_budget)


def _build_parallel_retry(
    ids: Sequence[ProcessId], seed: int, crash_budget: int
) -> Sequence[SyncProcess]:
    from repro.loadbalance.processes import build_parallel_retry

    return build_parallel_retry(ids, seed=seed)


@dataclass(frozen=True)
class Workload:
    """One registered workload: how it runs, how long, how it is judged.

    ``policy`` selects a Balls-into-Leaves path policy; a workload
    without one runs ``build(ids, seed, crash_budget)``, its process list
    on the reference engine (builders import lazily, so this table stays
    import-light).  ``round_limit(n, t)`` is the round budget a run may
    spend, and what a captured failure reports.  ``renaming`` says
    whether the output is a tight renaming that
    :func:`~repro.sim.checker.check_renaming` applies to (approximate
    agreement decides reals, not names).
    """

    policy: Optional[str]
    round_limit: Callable[[int, int], int]
    build: Optional[ProcessBuilder] = None
    renaming: bool = True


#: Every workload the rails accept (`run_renaming`, TrialSpec,
#: ScenarioMatrix, hunts, tails): the renaming algorithms plus the
#: related Section 1-2 workloads they are measured against.
WORKLOADS: Dict[str, Workload] = {
    "balls-into-leaves": Workload("random", default_round_limit),
    "early-terminating": Workload("hybrid", default_round_limit),
    "rank-descent": Workload("rank", default_round_limit),
    "leftmost": Workload("leftmost", default_round_limit),
    # Flooding decides after t + 1 rounds whatever the faults.
    "flood": Workload(None, lambda n, t: t + 8, _build_flood),
    "approx-agreement": Workload(
        None, _approx_agreement_rounds, _build_approx_agreement, renaming=False
    ),
    # Some ball places every round (the lowest unplaced pid always wins
    # its own claim), so n rounds suffice under any faults.
    "parallel-retry": Workload(None, lambda n, t: n + 8, _build_parallel_retry),
}

#: Algorithm name -> Balls-into-Leaves path policy (None = not BiL-based).
ALGORITHMS: Dict[str, Optional[str]] = {
    name: workload.policy for name, workload in WORKLOADS.items()
}


def workload(algorithm: str) -> Workload:
    """The registered workload named ``algorithm``: the one lookup every
    entry point asks, and the one unknown-algorithm error."""
    try:
        return WORKLOADS[algorithm]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(WORKLOADS)}"
        ) from None


@dataclass
class RenamingRun:
    """Everything measured about one renaming execution."""

    algorithm: str
    n: int
    seed: int
    rounds: int
    names: Dict[ProcessId, Name]
    crashed: FrozenSet[ProcessId]
    failures: int
    last_round_named: Optional[int]
    metrics: SimulationMetrics
    phase_stats: List[Any] = field(default_factory=list)
    trace: Optional[Trace] = None
    result: Optional[SimulationResult] = None
    #: Which kernel actually executed the run ("reference"/"columnar").
    kernel: str = "reference"
    #: The monitor mode the run executed under, after resolution.
    monitor: str = "off"
    #: The trace mode the run executed under ("off"/"cheap"/"full").
    trace_mode: str = "off"
    #: Structured :class:`repro.monitor.invariants.Violation` records the
    #: run's monitors collected (always empty on a correct run).
    violations: List[Any] = field(default_factory=list)

    @property
    def phases(self) -> int:
        """Completed phases (two rounds each, after the init round)."""
        return max(0, (self.rounds - 1) // 2)


def run_renaming(
    algorithm: str,
    ids: Sequence[ProcessId],
    *,
    seed: int = 0,
    adversary: Optional[Adversary] = None,
    crash_budget: Optional[int] = None,
    view_mode: str = "shared",
    halt_on_name: bool = False,
    check: bool = True,
    check_invariants: bool = False,
    collect_phase_stats: bool = False,
    trace: str = "off",
    max_rounds: Optional[int] = None,
    kernel: str = "auto",
    monitor: str = "off",
) -> RenamingRun:
    """Run one tight-renaming execution and verify its output.

    Parameters
    ----------
    algorithm:
        One of :data:`WORKLOADS`: ``"balls-into-leaves"`` (Algorithm 1),
        ``"early-terminating"`` (Section 6), ``"rank-descent"`` and
        ``"flood"`` (deterministic baselines), ``"leftmost"`` (the
        degenerate worst case), ``"approx-agreement"`` (the Section 2
        substrate; decides reals, so the renaming check is skipped), or
        ``"parallel-retry"`` (the load-balancing scheme of Section 1 on
        message-passing rails; names are bin indices).
    ids:
        Distinct, comparable original identifiers; ``n = len(ids)``.
    adversary:
        Crash strategy (default: no failures).
    crash_budget:
        The model's ``t`` (default ``n - 1``).
    halt_on_name:
        Enable the per-ball termination extension (a ball halts as soon
        as it has announced its leaf); BiL-based algorithms only.
    check:
        Verify termination/validity/uniqueness and raise on violation.
    collect_phase_stats:
        Attach a :class:`~repro.core.instrumentation.TreeStatsObserver`
        (BiL-based algorithms only; keeps the run on the reference
        kernel).
    trace:
        Event capture: ``"off"`` (default, records nothing),
        ``"cheap"`` (crash/omit/name/halt events plus the round
        aggregates, which the fast kernels decode from their run record;
        available on every kernel), or ``"full"`` (the
        reference engine's message-level instrumentation; pins the
        reference kernel).  The recorded trace is returned as
        ``RenamingRun.trace``.
    kernel:
        ``"auto"`` (default) runs the columnar fast path whenever it
        models the run and the reference engine otherwise (see
        :func:`~repro.sim.kernel.auto_kernel`); ``"reference"`` pins the
        lock-step engine; ``"columnar"`` or ``"vectorized"`` pins a fast
        path and raises :class:`~repro.errors.KernelUnsupported` for
        runs it rejects.
    monitor:
        Runtime invariant monitoring: ``"off"`` (default), ``"cheap"``
        (the flat-array per-round predicates of
        :mod:`repro.monitor.invariants`, available on every kernel), or
        ``"full"`` (cheap predicates plus the instrumented reference
        movement audit; keeps the run on the reference kernel).
        ``check_invariants=True`` upgrades ``"off"`` to ``"cheap"`` —
        invariant checking no longer forces the reference engine — and
        makes the runner raise
        :class:`~repro.errors.MonitorViolation` on any finding;
        otherwise findings are reported in ``RenamingRun.violations``.
    """
    load = workload(algorithm)
    n = len(ids)
    if n == 0:
        raise ConfigurationError("renaming needs at least one participant")
    check_monitor_mode(monitor)
    if view_mode not in VIEW_MODES:
        raise ConfigurationError(
            f"unknown view mode {view_mode!r}; choose from {VIEW_MODES}"
        )
    if check_invariants and monitor == "off":
        # The satellite fix: invariant checking used to force the
        # reference engine; now it routes to the cheap columnar monitors
        # (pin monitor="full" to keep the faithful reference audit).
        monitor = "cheap"
    trace_mode = check_trace_mode(trace)
    trace_sink = Trace() if trace_mode != "off" else None
    budget = n - 1 if crash_budget is None else crash_budget
    # Checked here, before any kernel is chosen, so every kernel rejects
    # a bad budget with the same message.
    if not 0 <= budget < n:
        raise ConfigurationError(
            f"crash budget must satisfy 0 <= t < n; got t={budget}, n={n}"
        )
    request = KernelRequest(
        algorithm=algorithm,
        ids=tuple(ids),
        seed=seed,
        policy=load.policy,
        adversary=adversary,
        crash_budget=budget,
        max_rounds=load.round_limit(n, budget) if max_rounds is None else max_rounds,
        view_mode=view_mode,
        halt_on_name=halt_on_name,
        check_invariants=check_invariants,
        collect_phase_stats=collect_phase_stats,
        trace=trace_sink,
        trace_mode=trace_mode,
        monitor=monitor,
    )
    engine = select_kernel(kernel, request)
    try:
        run = engine.run(request)
    except Exception as error:
        # A deadlocked or violating run is exactly what hunts mine: hang
        # the engine that ran it and the partial trace on the error, so a
        # capture_errors row names its kernel and keeps the event stream
        # up to the failure (which the timeline explorer draws).
        error.kernel = engine.name
        if trace_sink is not None:
            error.partial_trace = trace_sink
        raise
    result = run.result
    try:
        if check_invariants and run.violations:
            from repro.errors import MonitorViolation

            raise MonitorViolation(run.violations)
        if check and load.renaming:
            check_renaming(result, RenamingSpec(n=n))
    except Exception as error:
        error.kernel = engine.name
        if trace_sink is not None:
            error.partial_trace = trace_sink
        raise

    names = {
        pid: name
        for pid, name in result.decisions.items()
        if pid not in result.crashed and name is not None
    }
    return RenamingRun(
        algorithm=algorithm,
        n=n,
        seed=seed,
        rounds=result.rounds,
        names=names,
        crashed=result.crashed,
        failures=len(result.crashed),
        last_round_named=run.last_round_named,
        metrics=result.metrics,
        phase_stats=run.phase_stats,
        trace=trace_sink,
        result=result,
        kernel=run.kernel,
        monitor=monitor,
        trace_mode=trace_mode,
        violations=run.violations,
    )
