"""Cheap-trace overhead: traced vs untraced batch wall-clock.

Times whole scenario-matrix cells through the batch API with
``trace="off"`` vs ``trace="cheap"`` and writes the measurements to
``BENCH_trace.json`` at the repository root (uploaded by the CI bench
job).  Two workloads:

* *stacked* — failure-free cells pinned to the vectorized kernel, where
  cheap traces are lazy views over the engine's persistent arrays (zero
  per-round cost; the per-event decode is pay-per-read and exercised
  outside the timed region, in the unperturbed-results assertions);
* *columnar* — the certified crash-adversary grid, where each traced
  run decodes its trace once, after its round loop.

Both kernels decode their cheap traces through one run record
(:class:`repro.sim.record.TrialRecord`).  The acceptance bar on both is
<= 20% overhead, the cheap mode's ceiling.  Traced results are asserted
identical to untraced ones inside the timing loop, so the benchmark
doubles as a tracing-does-not-perturb test.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from repro._version import __version__
from repro.sim.batch import ScenarioMatrix, run_batch
from repro.sim.specs import AdversarySpec

SEED = 5
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_trace.json"
CEILING = 0.20

#: Stacked (vectorized) failure-free cells: (n, trials, reps).
STACKED_CELLS = ((256, 100, 3), (1024, 100, 2))

#: Crash-adversary cells for the columnar engine.
COLUMNAR_ADVERSARIES = (
    AdversarySpec.of("random", rate=0.1),
    AdversarySpec.of("targeted"),
)
COLUMNAR_N = 128
COLUMNAR_TRIALS = 20
COLUMNAR_REPS = 3


def _best_of(reps, fn):
    best = None
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _time_matrix(trace, reps, sizes, adversaries=("none",), **build):
    def run():
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves"],
            sizes,
            adversaries,
            trace=trace,
            base_seed=SEED,
            **build,
        )
        return run_batch(matrix)

    return _best_of(reps, run)


def _assert_unperturbed(off, cheap, kernel=None):
    if kernel is not None:
        assert {t.kernel for t in cheap.trials} == {kernel}
    assert all(t.trace is not None and len(t.trace) for t in cheap.trials)
    assert all(t.trace is None for t in off.trials)
    assert [t.names for t in cheap.trials] == [t.names for t in off.trials]
    assert [t.rounds for t in cheap.trials] == [t.rounds for t in off.trials]


# Wall-clock comparison: too flaky for the -x tier-1 gate (same policy
# as the other benches).  The bench CI job selects it with -m tier2.
@pytest.mark.tier2
def test_bench_trace_writes_json(capsys):
    from repro.sim.vectorized import vectorized_available

    cells = []

    # Warm caches (numpy import, topology/stream-bank setup) outside the
    # timed region so the first trace mode measured pays no setup tax.
    _time_matrix("off", 1, [64], trials=5, kernel="auto")
    if vectorized_available():
        _time_matrix("off", 1, [64], trials=5, kernel="vectorized")
        for n, trials, reps in STACKED_CELLS:
            off_s, off = _time_matrix(
                "off", reps, [n], trials=trials, kernel="vectorized"
            )
            cheap_s, cheap = _time_matrix(
                "cheap", reps, [n], trials=trials, kernel="vectorized"
            )
            _assert_unperturbed(off, cheap, kernel="vectorized")
            cells.append(
                {
                    "workload": "stacked",
                    "kernel": "vectorized",
                    "n": n,
                    "trials": trials,
                    "adversary": "none",
                    "reps": reps,
                    "off_s": round(off_s, 6),
                    "cheap_s": round(cheap_s, 6),
                    "overhead": round(cheap_s / off_s - 1.0, 4),
                    "ceiling": CEILING,
                }
            )

    off_s, off = _time_matrix(
        "off",
        COLUMNAR_REPS,
        [COLUMNAR_N],
        COLUMNAR_ADVERSARIES,
        trials=COLUMNAR_TRIALS,
        kernel="columnar",
    )
    cheap_s, cheap = _time_matrix(
        "cheap",
        COLUMNAR_REPS,
        [COLUMNAR_N],
        COLUMNAR_ADVERSARIES,
        trials=COLUMNAR_TRIALS,
        kernel="columnar",
    )
    _assert_unperturbed(off, cheap, kernel="columnar")
    cells.append(
        {
            "workload": "columnar",
            "kernel": "columnar",
            "n": COLUMNAR_N,
            "trials": COLUMNAR_TRIALS,
            "adversary": [spec.key for spec in COLUMNAR_ADVERSARIES],
            "reps": COLUMNAR_REPS,
            "off_s": round(off_s, 6),
            "cheap_s": round(cheap_s, 6),
            "overhead": round(cheap_s / off_s - 1.0, 4),
            "ceiling": CEILING,
        }
    )

    payload = {
        "benchmark": "trace",
        "workload": (
            "run_batch wall clock, trace='off' vs trace='cheap'; "
            "stacked = failure-free vectorized cells (lazy trace decode "
            "from persistent arrays), columnar = crash-adversary grid "
            "(one trace decode per run after its round loop); both "
            "decode through one run record"
        ),
        "version": __version__,
        "python": platform.python_version(),
        "cells": cells,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    with capsys.disabled():
        print()
        for cell in cells:
            print(
                f"{cell['workload']:>8} n={cell['n']:>5} "
                f"x{cell['trials']}: off {cell['off_s']:.3f}s  "
                f"cheap {cell['cheap_s']:.3f}s  "
                f"overhead {cell['overhead'] * 100:+.1f}% "
                f"(ceiling {cell['ceiling'] * 100:.0f}%)"
            )
        print(f"[written to {OUTPUT}]")

    for cell in cells:
        assert cell["overhead"] <= cell["ceiling"], cell
