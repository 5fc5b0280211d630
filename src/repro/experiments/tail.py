"""EXP-TAIL — importance-splitting estimates of the round-count tail.

The paper's Theorem 2 bounds the running time by O(log log n) rounds
w.h.p.; this experiment measures the actual tail P(rounds > k·⌈log log n⌉)
for increasing k via the multilevel splitting estimator
(:mod:`repro.monitor.splitting`).  Stage 0 *is* direct Monte Carlo for
the first level, so the first row doubles as the MC cross-check; deeper
stages reach tail mass direct sampling never could at this trial budget
(down to ~1e-9 with the deep grids).  All numbers are deterministic in
``--seed`` and byte-identical across executors.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import Table
from repro.experiments.common import ExperimentResult, check_scale
from repro.monitor.splitting import TailConfig, default_levels, run_tail
from repro.sim.batch import Executor

EXPERIMENT_ID = "EXP-TAIL"
TITLE = "Round-count tail P(rounds > k*ceil(loglog n)) by importance splitting"

#: (n, stage-0 trials, k range, per-stage growth) cells per scale.  The
#: conditional factors decay doubly-exponentially with depth, so the
#: deep (two-round) stages run growing populations; extinct stages end a
#: ladder early with an explicit upper bound instead of a fake zero.
_GRIDS = {
    "smoke": ((64, 64, 2, 3, 2.0),),
    "paper": ((256, 256, 2, 4, 4.0), (1024, 256, 2, 4, 4.0)),
    "deep": ((1024, 512, 2, 5, 8.0), (4096, 512, 2, 5, 8.0)),
}


def run(
    scale: str = "paper",
    seed: int = 0,
    executor: Optional[Executor] = None,
    kernel: Optional[str] = None,
) -> ExperimentResult:
    """Estimate the round tail for every cell of the scale's grid."""
    check_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE, scale)
    for n, trials, k_min, k_max, growth in _GRIDS[scale]:
        config = TailConfig(
            n=n,
            seed=seed,
            trials=trials,
            levels=default_levels(n, k_min, k_max),
            kernel=kernel if kernel is not None else "auto",
            growth=growth,
        )
        tail = run_tail(config, executor=executor)
        table = Table(
            f"round tail: balls-into-leaves n={n} "
            f"(unit {tail.unit}, {trials} trials/stage)",
            ["stage", "level", "k", "trials", "survivors", "p", "estimate"],
            notes="stage 0 is plain Monte Carlo to the first level; each "
            "later stage resamples + clones the previous survivors",
        )
        for stage in tail.stages:
            table.add_row(
                stage.stage,
                stage.level,
                f"{stage.level / tail.unit:.2f}",
                stage.trials,
                stage.survivors,
                f"{stage.p:.3e}",
                f"{tail.estimate_after(stage.stage):.3e}",
            )
        result.tables.append(table)
        rel = tail.rel_std
        bound = tail.upper_bound
        if bound is not None:
            last = tail.stages[-1]
            headline = (
                f"n={n}: extinct at level {last.level} "
                f"(0/{last.trials} clones), P(rounds > {last.level}) "
                f"<~ {bound:.3e}"
            )
        else:
            headline = (
                f"n={n}: P(rounds > {tail.levels[-1]}) ~= {tail.estimate:.3e}"
                + (f" (rel_std ~= {rel:.2f})" if rel is not None else "")
            )
        result.notes.append(
            headline
            + f"; reproduce with: python -m repro tail --n {n} --seed {seed}"
            f" --trials {trials} --growth {growth} --levels "
            + ",".join(str(level) for level in tail.levels)
        )
    return result
