"""EXP-ADV — Section 5.3: crashes do not slow Balls-into-Leaves down.

Run the algorithm against every adversary in the suite — oblivious
random, adaptive targeted-priority, sandwich, half-split — and compare
round distributions against the failure-free baseline.  The paper's
argument: a failure only ever *increases* the gateway capacity relative
to path populations, so every ball is at least as likely to escape; round
counts should not degrade beyond a small constant.

The gauntlet is a single scenario matrix whose adversary dimension spans
the whole suite; the batch engine runs it on any executor.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.tables import Table
from repro.experiments.common import (
    ExperimentResult,
    failure_stats,
    round_stats,
    scaled,
    sweep,
)
from repro.sim.batch import Executor
from repro.sim.specs import AdversarySpec

EXPERIMENT_ID = "EXP-ADV"
TITLE = "Section 5.3: adversary gauntlet for Balls-into-Leaves"


def _strategies() -> Tuple[AdversarySpec, ...]:
    return (
        AdversarySpec.of("none", label="none"),
        AdversarySpec.of("random", rate=0.05, label="random 5%"),
        AdversarySpec.of("random", rate=0.20, label="random 20%"),
        AdversarySpec.of("targeted", label="targeted-priority"),
        AdversarySpec.of("sandwich", label="sandwich"),
        AdversarySpec.of("half-split", label="half-split r1"),
        AdversarySpec.of("half-split", last_round=200, label="half-split all"),
    )


def run(
    scale: str = "paper",
    seed: int = 0,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """Run the gauntlet at a fixed n."""
    n = scaled(scale, 64, 512)
    trials = scaled(scale, 3, 15)

    strategies = _strategies()
    batch = sweep(
        ["balls-into-leaves"],
        [n],
        strategies,
        trials=trials,
        base_seed=seed,
        executor=executor,
    )

    result = ExperimentResult(EXPERIMENT_ID, TITLE, scale)
    table = Table(
        f"Balls-into-Leaves under each adversary (n={n}, {trials} trials)",
        ["adversary", "mean rounds", "p95", "max", "mean failures"],
        notes="every run passes the tight-renaming checker; budget t = n-1",
    )
    baseline = None
    for strategy in strategies:
        runs = batch.cell("balls-into-leaves", n, strategy)
        rounds = round_stats(runs)
        failures = failure_stats(runs)
        table.add_row(strategy.key, rounds.mean, rounds.p95, rounds.maximum, failures.mean)
        if strategy.key == "none":
            baseline = rounds.mean
    result.tables.append(table)
    if baseline:
        result.notes.append(
            f"failure-free mean is {baseline:.2f} rounds; Section 5.3 predicts no "
            "adversary row grows beyond a small constant of it"
        )
    return result
