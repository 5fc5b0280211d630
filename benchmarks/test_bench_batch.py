"""Benchmark the batch engine: serial vs multiprocessing on a t2-style sweep.

The workload is the acceptance sweep — Balls-into-Leaves at n=64 over 100
seeds — run through both executors.  On a multi-core box the process
backend must beat serial wall-clock with >= 4 workers; on boxes without 4
cores the speedup assertions skip (pool overhead cannot win on one core)
while the determinism assertions still run everywhere.

The chunking benchmark isolates the Executor's chunk rule: tasks ship
in per-worker chunks (so a worker's process-local cached_topology is
built once per size, not once per submission) instead of one task per
round-trip, which pays an IPC round-trip and a fresh task pickle per
trial.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.sim.batch import (
    Executor,
    ScenarioMatrix,
    _run_task,
    plan_tasks,
    run_batch,
)


def _sweep_matrix(trials: int = 100) -> ScenarioMatrix:
    return ScenarioMatrix.build(
        ["balls-into-leaves"], [64], ["none"], trials=trials, base_seed=0
    )


def test_bench_batch_serial(benchmark):
    result = benchmark.pedantic(
        run_batch, args=(_sweep_matrix(),), iterations=1, rounds=3,
    )
    assert len(result) == 100


def test_bench_batch_process(benchmark):
    workers = min(4, os.cpu_count() or 1)
    matrix = _sweep_matrix()

    def run():
        # Each round starts and ends its own pool, as a command does.
        with Executor("process", workers) as executor:
            return run_batch(matrix, executor=executor)

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert len(result) == 100


def test_process_backend_matches_serial_everywhere():
    matrix = _sweep_matrix(trials=20)
    with Executor("process", 2) as executor:
        parallel = run_batch(matrix, executor=executor)
    assert run_batch(matrix).trials == parallel.trials


@pytest.mark.tier2  # wall-clock comparison: too flaky for the -x tier-1 gate
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 cores; pool overhead cannot win on fewer",
)
def test_parallel_speedup_on_four_workers():
    matrix = _sweep_matrix()
    # Warm both paths once so interpreter/pool startup is off the clock.
    run_batch(ScenarioMatrix.build(["balls-into-leaves"], [8], trials=2))

    started = time.perf_counter()
    serial = run_batch(matrix)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    with Executor("process", 4) as executor:
        parallel = run_batch(matrix, executor=executor)
    parallel_s = time.perf_counter() - started

    assert serial.trials == parallel.trials
    assert parallel_s < serial_s, (
        f"process backend ({parallel_s:.2f}s) did not beat serial ({serial_s:.2f}s) "
        "on 4 workers"
    )


@pytest.mark.tier2  # wall-clock comparison: too flaky for the -x tier-1 gate
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="chunking wins need real parallelism; skip on small boxes",
)
def test_worker_chunking_beats_per_trial_submission():
    """Chunked task shipping must beat one task per round-trip on a
    multi-size sweep.

    The sweep mixes sizes so per-trial submission also pays repeated
    process-local topology rebuilds when trials of different n
    interleave across workers; chunked shipping keeps same-cell runs
    together.  Reference kernel pins the per-trial path so the columnar/
    vectorized engines don't mask the executor cost being measured.
    """
    matrix = ScenarioMatrix.build(
        ["balls-into-leaves"], [64, 256], ["none"],
        trials=40, base_seed=0, kernel="reference",
    )
    tasks = plan_tasks(matrix.expand(), parts=4)
    with Executor("process", 4) as executor:  # warm pools
        run_batch(_sweep_matrix(trials=4), executor=executor)

    # Pool start-up and teardown are timed on both sides.
    started = time.perf_counter()
    with Executor("process", 4) as executor:
        chunked = executor.map(_run_task, tasks)
    chunked_s = time.perf_counter() - started

    started = time.perf_counter()
    with multiprocessing.Pool(4) as pool:
        degenerate = pool.map(_run_task, tasks, 1)
    degenerate_s = time.perf_counter() - started

    assert chunked == degenerate
    assert chunked_s < degenerate_s, (
        f"chunked shipping ({chunked_s:.2f}s) did not beat per-trial "
        f"submission ({degenerate_s:.2f}s)"
    )
