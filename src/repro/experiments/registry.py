"""Registry of experiment ids -> runner modules.

Experiments whose ``run`` accepts ``executor`` (the modules routed
through :mod:`repro.sim.batch`) get the caller's
:class:`~repro.sim.batch.Executor` threaded through; the rest keep their
historical signature and run in-process.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Dict, List, Optional

from repro.errors import UnknownExperimentError
from repro.experiments import (
    ablations,
    adversary_gauntlet,
    approx_agreement,
    det_termination,
    fault_injection,
    fig_path_view,
    fig_phase_snapshots,
    hunt,
    l6_node_occupancy,
    l10_path_drain,
    loadbalance_motivation,
    message_complexity,
    nonpow2,
    separation,
    t2_scaling,
    t3_failure_free,
    t4_early_termination,
    tail,
)
from repro.experiments.common import ExperimentResult
from repro.sim.batch import Executor


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment."""

    experiment_id: str
    title: str
    run: Callable[..., ExperimentResult]

    @property
    def batched(self) -> bool:
        """True when the runner routes its sweeps through the batch engine."""
        return "executor" in inspect.signature(self.run).parameters

    @property
    def kernel_aware(self) -> bool:
        """True when the runner accepts a simulation-kernel selection."""
        return "kernel" in inspect.signature(self.run).parameters


_MODULES: List[ModuleType] = [
    fig_phase_snapshots,
    fig_path_view,
    t2_scaling,
    separation,
    l6_node_occupancy,
    l10_path_drain,
    t3_failure_free,
    t4_early_termination,
    adversary_gauntlet,
    loadbalance_motivation,
    det_termination,
    ablations,
    message_complexity,
    approx_agreement,
    nonpow2,
    hunt,
    tail,
    fault_injection,
]

_REGISTRY: Dict[str, ExperimentEntry] = {
    module.EXPERIMENT_ID: ExperimentEntry(
        experiment_id=module.EXPERIMENT_ID, title=module.TITLE, run=module.run
    )
    for module in _MODULES
}


def all_experiments() -> List[ExperimentEntry]:
    """All registered experiments in presentation order."""
    return [_REGISTRY[module.EXPERIMENT_ID] for module in _MODULES]


def get_experiment(experiment_id: str) -> ExperimentEntry:
    """Look up one experiment; raises :class:`UnknownExperimentError`."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise UnknownExperimentError(experiment_id, list(_REGISTRY)) from None


def run_experiment(
    experiment_id: str,
    *,
    scale: str = "paper",
    seed: int = 0,
    executor: Optional[Executor] = None,
    kernel: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment by id, threading the caller's executor (serial
    when omitted) and the simulation-kernel selection through when the
    experiment supports them (others ignore them and run serially on the
    default kernel)."""
    entry = get_experiment(experiment_id)
    kwargs = {"scale": scale, "seed": seed}
    if entry.batched:
        kwargs["executor"] = executor
    if entry.kernel_aware and kernel is not None:
        kwargs["kernel"] = kernel
    return entry.run(**kwargs)
