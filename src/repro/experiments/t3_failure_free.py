"""EXP-T3 — Theorem 3: the early-terminating variant is O(1) failure-free.

Without crashes the deterministic phase-1 rank paths are collision-free,
so every ball reaches a distinct leaf in the first phase: 3 rounds total
(hello + one two-round phase), independent of ``n``.  The table verifies
the constant across the sweep and contrasts plain Balls-into-Leaves.

One two-algorithm scenario matrix through the batch engine.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import Table
from repro.experiments.common import (
    ExperimentResult,
    round_stats,
    scaled,
    sweep,
)
from repro.sim.batch import Executor

EXPERIMENT_ID = "EXP-T3"
TITLE = "Theorem 3: failure-free early termination in O(1) rounds"


def run(
    scale: str = "paper",
    seed: int = 0,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """Sweep n failure-free; early-terminating rounds must be constant."""
    sizes = scaled(scale, [16, 256], [16, 64, 256, 1024, 4096])
    trials = scaled(scale, 2, 5)

    batch = sweep(
        ["early-terminating", "balls-into-leaves"],
        sizes,
        ["none"],
        trials=trials,
        base_seed=seed,
        executor=executor,
    )

    result = ExperimentResult(EXPERIMENT_ID, TITLE, scale)
    table = Table(
        "Failure-free rounds: early-terminating vs plain BiL",
        ["n", "early-terminating (max)", "balls-into-leaves (mean)"],
        notes="theorem: the left column is a constant (3 = hello + 1 phase)",
    )
    constants = set()
    for n in sizes:
        early = round_stats(batch.cell("early-terminating", n))
        plain = round_stats(batch.cell("balls-into-leaves", n))
        table.add_row(n, int(early.maximum), plain.mean)
        constants.add(early.maximum)
    result.tables.append(table)
    result.notes.append(
        f"distinct early-terminating round counts across all n: {sorted(constants)} "
        "(a single value confirms O(1))"
    )
    return result
