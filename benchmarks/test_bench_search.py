"""Search throughput: schedules evaluated per second, per strategy.

Times each search strategy spending a fixed trial budget on the
``balls-into-leaves n=32`` cell (every compiled schedule runs on the
columnar crash engine), serial vs the process executor, and writes
``BENCH_search.json`` at the repository root — the artifact the CI
benchmark job uploads next to ``BENCH_kernel.json``.

Throughput here is dominated by trial wall-clock, so the interesting
ratios are (a) strategy overhead above raw trial cost (genotype ops are
supposed to be noise), (b) how well generation-sized batches feed the
worker pool, and (c) the *stacked multiplier*: every built-in strategy
emits same-cell generations, so the evaluator can stack a whole
generation onto the vectorized crash engine as one pass.  The stacked
and per-trial variants are timed explicitly by pinning the hunt's
kernel to ``vectorized`` and to ``columnar``; the default ``auto`` run
sits between them (generations below the 1024-stream floor stay
per-trial, bigger ones stack).  The determinism contract is asserted
inside the timing loop: every executor and kernel must produce
byte-identical evaluation histories.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro._version import __version__
from repro.search.strategies import STRATEGIES, HuntConfig, run_hunt
from repro.sim.batch import Executor

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_search.json"

N = 32
BUDGET = 150
WORKERS = min(4, os.cpu_count() or 1)
#: The large hunt cell: generations clear the 1024-stream crash floor,
#: so the stacked crash engine carries whole generations.  Hillclimb is
#: deliberately absent — its few-neighbor generations are faster
#: per-trial at any n measured, which is exactly what the floor encodes.
BIG_N = 128
BIG_STRATEGIES = ("evolve", "random")


def _timed_hunt(strategy: str, *, n: int = N, kernel: str = "auto", **kwargs):
    config = HuntConfig(
        n=n, objective="rounds", budget=BUDGET, seed=1, kernel=kernel
    )
    started = time.perf_counter()
    result = run_hunt(config, strategy, **kwargs)
    return result, time.perf_counter() - started


# One artifact-writing pass, nightly/bench-job scoped like bench-kernel.
@pytest.mark.tier2
def test_bench_search_writes_artifact():
    cells = []
    for strategy in sorted(STRATEGIES):
        serial, serial_s = _timed_hunt(strategy)
        with Executor("process", WORKERS) as executor:
            process, process_s = _timed_hunt(strategy, executor=executor)
        # The stacked multiplier: whole generations on the vectorized
        # crash engine vs per-trial columnar, both pinned —
        # byte-identical histories either way.
        per_trial, per_trial_s = _timed_hunt(strategy, kernel="columnar")
        stacked, stacked_s = _timed_hunt(strategy, kernel="vectorized")
        assert json.dumps(serial.rows()) == json.dumps(process.rows()), (
            f"{strategy}: executor changed the evaluation history"
        )
        assert json.dumps(per_trial.rows()) == json.dumps(stacked.rows()), (
            f"{strategy}: generation stacking changed the evaluation history"
        )
        assert json.dumps(serial.rows()) == json.dumps(stacked.rows()), (
            f"{strategy}: the auto kernel's stream floor changed the "
            "evaluation history"
        )
        cells.append(
            {
                "strategy": strategy,
                "n": N,
                "budget": BUDGET,
                "best_score": serial.best.score,
                "serial_s": round(serial_s, 4),
                "serial_schedules_per_s": round(BUDGET / serial_s, 2),
                f"process{WORKERS}_s": round(process_s, 4),
                f"process{WORKERS}_schedules_per_s": round(
                    BUDGET / process_s, 2
                ),
                "per_trial_s": round(per_trial_s, 4),
                "stacked_s": round(stacked_s, 4),
                "stacked_schedules_per_s": round(BUDGET / stacked_s, 2),
                "stacked_multiplier": round(per_trial_s / stacked_s, 2),
            }
        )
        assert BUDGET / serial_s > 5, (
            f"{strategy}: below 5 schedules/s serially — strategy overhead "
            "is no longer noise next to trial cost"
        )
    # The large hunt cell: stacking engages by default (generations
    # clear the stream floor), so this is the regime the stacked crash
    # engine was built for.  Best-of-2 because each hunt is ~1s.
    big_cells = []
    for strategy in BIG_STRATEGIES:
        per_trial_s = stacked_s = None
        per_trial = stacked = None
        for _ in range(2):
            result, elapsed = _timed_hunt(strategy, n=BIG_N, kernel="columnar")
            if per_trial_s is None or elapsed < per_trial_s:
                per_trial_s, per_trial = elapsed, result
            result, elapsed = _timed_hunt(strategy, n=BIG_N, kernel="vectorized")
            if stacked_s is None or elapsed < stacked_s:
                stacked_s, stacked = elapsed, result
        assert json.dumps(per_trial.rows()) == json.dumps(stacked.rows()), (
            f"{strategy} n={BIG_N}: generation stacking changed the "
            "evaluation history"
        )
        big_cells.append(
            {
                "strategy": strategy,
                "n": BIG_N,
                "budget": BUDGET,
                "best_score": stacked.best.score,
                "per_trial_s": round(per_trial_s, 4),
                "stacked_s": round(stacked_s, 4),
                "stacked_schedules_per_s": round(BUDGET / stacked_s, 2),
                "stacked_multiplier": round(per_trial_s / stacked_s, 2),
            }
        )

    payload = {
        "version": __version__,
        "workload": f"balls-into-leaves n={N}, {BUDGET}-trial hunts, "
        "rounds objective",
        "workers": WORKERS,
        "notes": (
            "stacked_multiplier = per-trial columnar vs whole "
            "generations stacked on the vectorized crash engine (hunt "
            "kernel pinned to columnar vs vectorized); the default auto "
            "run sits between them — generations below the 1024-stream "
            "floor stay per-trial because small cells are faster that "
            "way.  Histories are asserted byte-identical across every "
            "executor and kernel."
        ),
        "cells": cells,
        "big_cells": big_cells,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    # At the large cell the stacked crash engine must not lose to the
    # per-trial path (locally ~1.3x; the floor is noise-conservative).
    for cell in big_cells:
        assert cell["stacked_multiplier"] >= 1.0, cell


def test_hunt_smoke_for_tier1(benchmark):
    """Tier-1 guard: a tiny hunt stays interactive (and correct)."""
    result = benchmark.pedantic(
        run_hunt,
        args=(HuntConfig(n=8, objective="rounds", budget=10, seed=1), "random"),
        iterations=1,
        rounds=3,
    )
    assert len(result.evaluations) == 10
