"""EXP-HUNT — adversary synthesis: worst schedules per (algorithm, n) cell.

For each cell, spend a fixed evaluation budget searching crash-schedule
space (:mod:`repro.search`) and rank what the search found against the
bundled adversary gauntlet under the same objective and seed protocol.
The paper's Section 5.3 claim — crashes do not slow Balls-into-Leaves
down beyond a small constant — predicts the synthesized schedules win by
*little*; a large gap (or any invariant/liveness score) is a finding.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.worst_case import beats_every_bundled, worst_case_table
from repro.experiments.common import ExperimentResult, check_scale
from repro.search.baseline import evaluate_bundled, hunt_entry
from repro.search.strategies import HuntConfig, run_hunt
from repro.sim.batch import Executor

EXPERIMENT_ID = "EXP-HUNT"
TITLE = "Adversary synthesis: worst mined schedules vs the bundled gauntlet"

#: (algorithm, n) cells and search effort per scale.
_GRIDS = {
    "smoke": (("balls-into-leaves", (8,)),),
    "paper": (("balls-into-leaves", (16, 32)), ("early-terminating", (16,))),
    "deep": (("balls-into-leaves", (16, 32, 64)), ("early-terminating", (16, 32))),
}
_BUDGETS = {"smoke": 32, "paper": 150, "deep": 400}
_STRATEGIES = {"smoke": "random", "paper": "hillclimb", "deep": "hillclimb"}
_BASELINE_TRIALS = {"smoke": 2, "paper": 5, "deep": 8}


def run(
    scale: str = "paper",
    seed: int = 0,
    executor: Optional[Executor] = None,
    kernel: str = "auto",
    objective: str = "rounds",
) -> ExperimentResult:
    """Hunt every cell of the scale's grid and report the comparisons."""
    check_scale(scale)
    budget = _BUDGETS[scale]
    strategy = _STRATEGIES[scale]
    result = ExperimentResult(EXPERIMENT_ID, TITLE, scale)
    beaten = 0
    cells: Tuple[Tuple[str, Tuple[int, ...]], ...] = _GRIDS[scale]
    for algorithm, sizes in cells:
        for n in sizes:
            config = HuntConfig(
                algorithm=algorithm,
                n=n,
                objective=objective,
                budget=budget,
                seed=seed,
                kernel=kernel,
            )
            hunt = run_hunt(config, strategy, executor=executor)
            entries = [hunt_entry(e) for e in hunt.top(3)] + evaluate_bundled(
                config,
                trials=_BASELINE_TRIALS[scale],
                executor=executor,
            )
            result.tables.append(
                worst_case_table(f"{algorithm} n={n}", objective, entries)
            )
            best = hunt.best
            result.notes.append(
                f"{algorithm} n={n}: worst genotype {best.schedule.to_json()} "
                f"(score {best.score:g}, trial seed {best.best_result.spec.seed})"
            )
            if beats_every_bundled(entries):
                beaten += 1
    total = sum(len(sizes) for _, sizes in cells)
    result.notes.append(
        f"synthesized schedules beat the whole bundled gauntlet on "
        f"{beaten}/{total} cells ({strategy} strategy, budget {budget}/cell); "
        "shrink any genotype via: python -m repro hunt --objective "
        f"{objective} --strategy {strategy} --seed {seed} --budget {budget}"
    )
    return result
