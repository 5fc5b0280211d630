"""EXP-MSG — message complexity of Balls-into-Leaves.

The paper counts rounds; a systems reader also wants the message bill.
Every process broadcasts once per round (Section 3's model), so
broadcasts = alive-process-rounds and point-to-point deliveries ~ n per
broadcast.  This experiment measures both for Balls-into-Leaves and the
early-terminating variant, failure-free and under crashes, giving the
O(n^2 log log n) delivery total implied by Theorem 2.

Three scenario matrices through the batch engine (failure-free,
halt-on-name, crash mix); the failure-free trials are shared across the
three tables instead of being recomputed.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.tables import Table
from repro.experiments.common import ExperimentResult, scaled, sweep
from repro.sim.batch import Executor
from repro.sim.specs import AdversarySpec

EXPERIMENT_ID = "EXP-MSG"
TITLE = "Message complexity: broadcasts and deliveries per run"


def run(
    scale: str = "paper",
    seed: int = 0,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """Measure message counts across sizes."""
    sizes = scaled(scale, [16, 64], [64, 256, 1024, 4096])
    trials = scaled(scale, 2, 5)

    ff_batch = sweep(
        ["balls-into-leaves", "early-terminating"],
        sizes,
        ["none"],
        trials=trials,
        base_seed=seed,
        executor=executor,
    )
    halting_batch = sweep(
        ["balls-into-leaves"],
        sizes,
        ["none"],
        trials=trials,
        base_seed=seed,
        executor=executor,
        halt_on_name=True,
    )
    crash_batch = sweep(
        ["balls-into-leaves"],
        sizes,
        [AdversarySpec.of("random", rate=0.05)],
        trials=trials,
        base_seed=seed + 1,
        executor=executor,
    )

    result = ExperimentResult(EXPERIMENT_ID, TITLE, scale)
    for algorithm in ("balls-into-leaves", "early-terminating"):
        table = Table(
            f"{algorithm}: mean message counts over {trials} trials",
            [
                "n",
                "rounds",
                "broadcasts",
                "deliveries",
                "deliv / n^2",
                "n^2 log2 log2 n",
            ],
            notes="deliveries ~ n^2 per phase: the n^2 loglog n total of Theorem 2",
        )
        for n in sizes:
            runs = ff_batch.cell(algorithm, n)
            mean_rounds = sum(r.rounds for r in runs) / trials
            broadcasts = sum(r.messages_sent for r in runs) / trials
            deliveries = sum(r.messages_delivered for r in runs) / trials
            table.add_row(
                n,
                mean_rounds,
                broadcasts,
                deliveries,
                deliveries / (n * n),
                n * n * math.log2(math.log2(n)),
            )
        result.tables.append(table)

    halt_table = Table(
        "halt-on-name extension: broadcast savings at identical rounds",
        ["n", "rounds", "broadcasts (standard)", "broadcasts (halt-on-name)", "saved"],
        notes="a ball goes silent right after announcing its leaf "
        "(the per-ball termination extension the paper sketches)",
    )
    for n in sizes:
        standard = ff_batch.cell("balls-into-leaves", n)
        early_halt = halting_batch.cell("balls-into-leaves", n)
        sent_standard = sum(r.messages_sent for r in standard) / trials
        sent_halting = sum(r.messages_sent for r in early_halt) / trials
        halt_table.add_row(
            n,
            sum(r.rounds for r in early_halt) / trials,
            sent_standard,
            sent_halting,
            f"{(1 - sent_halting / sent_standard) * 100:.0f}%",
        )
    result.tables.append(halt_table)

    crash_table = Table(
        "balls-into-leaves under 5% crashes: crashes shrink the bill",
        ["n", "rounds", "deliveries (ff)", "deliveries (crash)", "failures"],
        notes="crashed processes stop broadcasting, so failures reduce traffic",
    )
    for n in sizes:
        ff = ff_batch.cell("balls-into-leaves", n)
        crash = crash_batch.cell(
            "balls-into-leaves", n, AdversarySpec.of("random", rate=0.05)
        )
        crash_table.add_row(
            n,
            sum(r.rounds for r in crash) / trials,
            sum(r.messages_delivered for r in ff) / trials,
            sum(r.messages_delivered for r in crash) / trials,
            sum(r.failures for r in crash) / trials,
        )
    result.tables.append(crash_table)
    result.notes.append(
        "the early-terminating variant needs ~3 rounds failure-free, so its "
        "delivery bill is ~3 n^2 — the minimum any full-information "
        "broadcast protocol pays per round"
    )
    return result
