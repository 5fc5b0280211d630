"""The reference kernel: the lock-step engine as executable specification.

This is the faithful Section 3 execution extracted from the original
``run_renaming`` body: build one process per participant, drive the
:class:`~repro.sim.simulator.Simulation` against the adversary, collect
observers.  It models *every* run — all algorithms, adversaries, traces,
phase statistics — and serves as the ground truth the columnar fast path
is differentially checked against.  A Balls-into-Leaves run builds its
balls from the request's path policy; any other workload builds the
processes its :class:`~repro.sim.runner.Workload` record names.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.kernel import KernelRequest, KernelRun, SimulationKernel
from repro.sim.simulator import Simulation, SimulationResult


class ReferenceKernel(SimulationKernel):
    """One process object per participant, dict inboxes, full generality."""

    name = "reference"

    def run(self, request: KernelRequest) -> KernelRun:
        observers = []
        stats_observer = None
        monitor = None
        if request.policy is not None:
            from repro.core.balls_into_leaves import build_balls_into_leaves
            from repro.core.config import BallsIntoLeavesConfig
            from repro.core.instrumentation import TreeStatsObserver

            config = BallsIntoLeavesConfig(
                path_policy=request.policy,
                view_mode=request.view_mode,
                # "full" monitoring is exactly the instrumented reference
                # movement audit, whatever the caller's check_invariants.
                check_invariants=(
                    request.check_invariants or request.monitor == "full"
                ),
                halt_on_name=request.halt_on_name,
            )
            processes, store = build_balls_into_leaves(
                request.ids, seed=request.seed, config=config
            )
            if request.collect_phase_stats:
                stats_observer = TreeStatsObserver(store)
                observers.append(stats_observer)
            if request.monitor != "off":
                from repro.monitor.invariants import (
                    ReferenceMonitorAdapter,
                    RunMonitor,
                )
                from repro.tree.topology import cached_topology

                monitor = RunMonitor(
                    sorted(request.ids),
                    cached_topology(request.n).arrays(),
                    halt_on_name=request.halt_on_name,
                )
                observers.append(ReferenceMonitorAdapter(monitor))
        else:
            from repro.sim.runner import workload

            build = workload(request.algorithm).build
            assert build is not None  # every policy-free workload has one
            processes = build(request.ids, request.seed, request.crash_budget)

        simulation = Simulation(
            processes,
            adversary=request.adversary,
            crash_budget=request.crash_budget,
            max_rounds=request.max_rounds,
            trace=request.trace,
            observers=observers,
        )
        result = simulation.run()
        return KernelRun(
            result=result,
            last_round_named=_last_round_named(simulation, result),
            phase_stats=list(stats_observer.phases) if stats_observer else [],
            kernel=self.name,
            violations=[] if monitor is None else monitor.violations,
        )


def _last_round_named(simulation: Simulation, result: SimulationResult) -> Optional[int]:
    """Latest round at which a correct ball fixed its name (BiL only)."""
    last: Optional[int] = None
    for pid, proc in simulation.processes.items():
        if pid in result.crashed:
            continue
        named = getattr(proc, "round_named", None)
        if named is not None and (last is None or named > last):
            last = named
    return last
