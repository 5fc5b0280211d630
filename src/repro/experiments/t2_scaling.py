"""EXP-T2 — Theorem 2: Balls-into-Leaves finishes in O(log log n) rounds.

Sweep ``n`` over powers of two, run many seeded trials (failure-free and
with an aggressive random crash mix), and fit the mean round count to the
candidate growth models.  Theorem 2 predicts the ``loglog`` model wins by
a wide margin over ``log`` — and that crashes do not slow the algorithm
down (Section 5.3).

The whole sweep is two scenario matrices through the batch engine; pass
a process :class:`~repro.sim.batch.Executor` (``--workers`` on the CLI)
to spread the trials over cores without changing a digit of the output.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.ascii_plot import line_plot
from repro.analysis.fitting import fit_growth_models
from repro.analysis.tables import Table
from repro.experiments.common import (
    ExperimentResult,
    round_stats,
    scaled,
    sweep,
)
from repro.sim.batch import Executor
from repro.sim.specs import AdversarySpec

EXPERIMENT_ID = "EXP-T2"
TITLE = "Theorem 2: O(log log n) rounds w.h.p. for Balls-into-Leaves"


def run(
    scale: str = "paper",
    seed: int = 0,
    executor: Optional[Executor] = None,
    kernel: str = "auto",
) -> ExperimentResult:
    """Run the scaling sweep and return tables + fit report.

    ``--scale deep`` extends the grid to n = 2^14..2^17, where the
    log log shape becomes visually unmistakable.  Those sizes are only
    tractable on the columnar fast kernel, so the deep sweep is
    failure-free only (a crashing adversary would force every trial back
    onto the reference engine at ~minutes per trial).
    """
    deep = scale == "deep"
    if deep:
        sizes = [1024, 4096, 16384, 32768, 65536, 131072]
        trials = 5
    else:
        sizes = scaled(
            scale, [16, 64, 256], [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        )
        trials = scaled(scale, 3, 20)
    crash_rate = 0.05

    ff_batch = sweep(
        ["balls-into-leaves"],
        sizes,
        ["none"],
        trials=trials,
        base_seed=seed,
        executor=executor,
        kernel=kernel,
    )
    crash_batch = None
    if not deep:
        crash_batch = sweep(
            ["balls-into-leaves"],
            sizes,
            [AdversarySpec.of("random", rate=crash_rate)],
            trials=trials,
            base_seed=seed + 1,
            executor=executor,
            kernel=kernel,
        )

    result = ExperimentResult(EXPERIMENT_ID, TITLE, scale)
    if deep:
        table = Table(
            "Rounds to rename, Balls-into-Leaves (deep grid, fast kernel)",
            ["n", "log2(log2 n)", "ff mean", "ff p95", "ff max", "kernel"],
            notes="failure-free only: the columnar kernel is what makes "
            "n up to 2^17 tractable",
        )
    else:
        table = Table(
            "Rounds to rename, Balls-into-Leaves",
            [
                "n",
                "log2(log2 n)",
                "ff mean",
                "ff p95",
                "ff max",
                "crash mean",
                "crash p95",
                "crash max",
                "mean f",
            ],
            notes="ff = failure-free; crash = 5%/round random crashes, budget t=n-1",
        )

    ff_means, crash_means = [], []
    for n in sizes:
        ff_runs = ff_batch.cell("balls-into-leaves", n, "none")
        ff = round_stats(ff_runs)
        if deep:
            kernels = sorted({run_.kernel for run_ in ff_runs})
            table.add_row(
                n,
                math.log2(math.log2(n)),
                ff.mean,
                ff.p95,
                ff.maximum,
                "+".join(kernels),
            )
            ff_means.append(ff.mean)
            continue
        crash_runs = crash_batch.cell(
            "balls-into-leaves", n, AdversarySpec.of("random", rate=crash_rate)
        )
        crash = round_stats(crash_runs)
        mean_f = sum(run_.failures for run_ in crash_runs) / len(crash_runs)
        table.add_row(
            n,
            math.log2(math.log2(n)),
            ff.mean,
            ff.p95,
            ff.maximum,
            crash.mean,
            crash.p95,
            crash.maximum,
            mean_f,
        )
        ff_means.append(ff.mean)
        crash_means.append(crash.mean)
    result.tables.append(table)

    fits = fit_growth_models(sizes, ff_means)
    fit_table = Table(
        "Growth-model fit of failure-free mean rounds",
        ["model", "intercept", "slope", "R^2", "RMSE"],
        notes="Theorem 2 predicts 'loglog' beats 'log' and 'linear'",
    )
    for fit in fits:
        fit_table.add_row(fit.model, fit.intercept, fit.slope, fit.r_squared, fit.rmse)
    result.tables.append(fit_table)

    series = {"failure-free": ff_means}
    if not deep:
        series["5% crashes"] = crash_means
    result.plots.append(
        line_plot(
            series,
            xs=[math.log2(n) for n in sizes],
            title="mean rounds vs log2(n)  (flat-ish curve == sub-logarithmic)",
            x_label="log2(n)",
            y_label="rounds",
        )
    )
    best = fits[0]
    result.notes.append(
        f"best-fitting growth model: {best.model} "
        f"(R^2={best.r_squared:.3f}); paper predicts loglog or const-like at these sizes"
    )
    if deep:
        result.notes.append(
            "deep grid (n up to 2^17) runs on the columnar kernel; the crash "
            "matrix is omitted because crashing adversaries fall back to the "
            "reference engine (see EXPERIMENTS.md, kernel selection)"
        )
    else:
        result.notes.append(
            "crashes do not slow the run down (Section 5.3): compare 'crash mean' "
            "with 'ff mean' per row"
        )
    return result
