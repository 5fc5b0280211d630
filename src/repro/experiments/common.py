"""Shared scaffolding for experiment modules.

Seed sweeps route through :mod:`repro.sim.batch`: :func:`sweep` expands a
scenario matrix and runs it on the caller's
:class:`~repro.sim.batch.Executor` (serial when omitted; ``repro run``
and ``repro all`` pass the one executor their command owns), and
:func:`rounds_over_trials` — for experiments that need full
:class:`~repro.sim.runner.RenamingRun` objects such as phase statistics
— shares the engine's legacy per-trial seed schedule so both paths stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.adversary.base import Adversary
from repro.analysis.stats import TrialStats, summarize
from repro.analysis.tables import Table
from repro.errors import ExperimentError
from repro.ids import sparse_ids
from repro.sim.batch import (
    BatchResult,
    Executor,
    ScenarioMatrix,
    legacy_trial_seeds,
    run_batch,
)
from repro.sim.runner import RenamingRun, run_renaming
from repro.sim.specs import AdversaryLike

#: Experiment scales: "smoke" finishes in seconds (CI / benchmarks),
#: "paper" uses the full sweeps recorded in EXPERIMENTS.md, and "deep"
#: extends kernel-aware sweeps to sizes only the columnar fast path can
#: reach (experiments without a deep grid treat it as "paper").
Scale = str
SCALES = ("smoke", "paper", "deep")

#: A per-trial adversary factory (fresh instance per run, seeded).
AdversaryFactory = Callable[[int], Optional[Adversary]]


def no_adversary(_seed: int) -> Optional[Adversary]:
    """Factory for failure-free runs."""
    return None


@dataclass
class ExperimentResult:
    """What an experiment produces: tables, plots, and prose notes."""

    experiment_id: str
    title: str
    scale: Scale
    tables: List[Table] = field(default_factory=list)
    plots: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable report."""
        parts = [f"### {self.experiment_id}: {self.title} (scale={self.scale})", ""]
        for table in self.tables:
            parts.append(table.render())
        for plot in self.plots:
            parts.append(plot)
            parts.append("")
        for note in self.notes:
            parts.append(f"* {note}")
        parts.append(
            f"reproduce with: python -m repro run {self.experiment_id} --scale {self.scale}"
        )
        return "\n".join(parts)


def check_scale(scale: Scale) -> None:
    """Validate a scale name."""
    if scale not in SCALES:
        raise ExperimentError(f"unknown scale {scale!r}; choose from {SCALES}")


def sweep(
    algorithms: Iterable[str],
    sizes: Iterable[int],
    adversaries: Iterable[AdversaryLike] = ("none",),
    *,
    trials: int,
    base_seed: int,
    executor: Optional[Executor] = None,
    halt_on_name: bool = False,
    kernel: str = "auto",
) -> BatchResult:
    """Run an algorithm x size x adversary x seed grid through the engine.

    Uses the legacy seed schedule, so a cell's trials see exactly the
    seeds the old per-experiment serial loops used — tables built from
    the result are byte-identical to the historical output, on any
    executor and any kernel (the columnar fast path is differentially
    checked against the reference engine).
    """
    matrix = ScenarioMatrix.build(
        algorithms,
        sizes,
        adversaries,
        trials=trials,
        base_seed=base_seed,
        halt_on_name=halt_on_name,
        kernel=kernel,
    )
    return run_batch(matrix, executor=executor)


def rounds_over_trials(
    algorithm: str,
    n: int,
    *,
    trials: int,
    base_seed: int,
    adversary_factory: AdversaryFactory = no_adversary,
    collect_phase_stats: bool = False,
    **run_kwargs,
) -> List[RenamingRun]:
    """Run ``trials`` seeded executions of ``algorithm`` at size ``n``.

    In-process sibling of :func:`sweep` for experiments that need full
    :class:`RenamingRun` objects (phase statistics, traces) or ad-hoc
    adversary factories; the seed schedule is the engine's.
    """
    runs = []
    ids = sparse_ids(n)
    for seed in legacy_trial_seeds(base_seed, trials):
        runs.append(
            run_renaming(
                algorithm,
                ids,
                seed=seed,
                adversary=adversary_factory(seed),
                collect_phase_stats=collect_phase_stats,
                **run_kwargs,
            )
        )
    return runs


def round_stats(runs: Sequence) -> TrialStats:
    """Distribution of total round counts across runs (or trial results)."""
    return summarize([run.rounds for run in runs])


def failure_stats(runs: Sequence) -> TrialStats:
    """Distribution of actual failure counts across runs (or trial results)."""
    return summarize([run.failures for run in runs])


def scaled(scale: Scale, smoke_value, paper_value):
    """Pick a parameter by scale."""
    check_scale(scale)
    return smoke_value if scale == "smoke" else paper_value
