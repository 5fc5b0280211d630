"""Monitor overhead: monitored vs unmonitored batch wall-clock.

Times whole scenario-matrix cells through the batch API with
``monitor="off"`` vs ``monitor="cheap"`` and writes the measurements to
``BENCH_monitor.json`` at the repository root (uploaded by the CI bench
job).  Two workloads:

* *stacked* — failure-free cells pinned to the vectorized kernel, where
  the :class:`~repro.monitor.stacked.StackedMonitor` screens are a
  handful of O(T·n) ufunc passes per round against the engine's own
  dozens; the acceptance bar is <= 15% overhead, and in practice the
  screens disappear into the seed-derivation noise floor;
* *gauntlet* — the full certified-adversary grid (random, targeted,
  sandwich, half-split) on the columnar crash engine, where the scalar
  per-round predicates run in pure Python; the bar is looser (35%)
  because every distinct receiver-class view is audited per round.

Monitored results are asserted identical to unmonitored ones inside the
timing loop, so the benchmark doubles as a monitors-do-not-perturb test.
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

SEED = 3
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_monitor.json"

#: Stacked (vectorized) failure-free cells: (n, trials, reps, ceiling).
STACKED_CELLS = ((256, 100, 3, 0.15), (1024, 100, 2, 0.15))

#: The adversary gauntlet for the columnar crash engine.
GAUNTLET_ADVERSARIES = (
    AdversarySpec.of("random", rate=0.1),
    AdversarySpec.of("targeted"),
    AdversarySpec.of("sandwich"),
    AdversarySpec.of("half-split"),
)
GAUNTLET_N = 128
GAUNTLET_TRIALS = 20
GAUNTLET_REPS = 3
GAUNTLET_CEILING = 0.35


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


def _time_matrix(monitor, reps, sizes, adversaries=("none",), **build):
    def run():
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves"],
            sizes,
            adversaries,
            monitor=monitor,
            base_seed=SEED,
            **build,
        )
        return run_batch(matrix)

    return _best_of(reps, run)


# Wall-clock comparison: too flaky for the -x tier-1 gate (same policy
# as the other benches).  The bench CI job selects it with -m tier2.
@pytest.mark.tier2
def test_bench_monitor_writes_json(capsys):
    from repro.sim.vectorized import vectorized_available

    cells = []

    # Warm caches (numpy import, topology/stream-bank setup) outside the
    # timed region so the first monitor mode measured pays no setup tax.
    _time_matrix("off", 1, [64], trials=5, kernel="auto")
    if vectorized_available():
        _time_matrix("off", 1, [64], trials=5, kernel="vectorized")
        for n, trials, reps, ceiling in STACKED_CELLS:
            off_s, off = _time_matrix(
                "off", reps, [n], trials=trials, kernel="vectorized"
            )
            cheap_s, cheap = _time_matrix(
                "cheap", reps, [n], trials=trials, kernel="vectorized"
            )
            assert {t.kernel for t in cheap.trials} == {"vectorized"}
            assert {t.monitor for t in cheap.trials} == {"cheap"}
            assert all(t.violations == () for t in cheap.trials)
            assert [t.names for t in cheap.trials] == [
                t.names for t in off.trials
            ]
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
                    "ceiling": ceiling,
                }
            )

    off_s, off = _time_matrix(
        "off",
        GAUNTLET_REPS,
        [GAUNTLET_N],
        GAUNTLET_ADVERSARIES,
        trials=GAUNTLET_TRIALS,
        kernel="auto",
    )
    cheap_s, cheap = _time_matrix(
        "cheap",
        GAUNTLET_REPS,
        [GAUNTLET_N],
        GAUNTLET_ADVERSARIES,
        trials=GAUNTLET_TRIALS,
        kernel="auto",
    )
    assert {t.monitor for t in cheap.trials} == {"cheap"}
    assert all(t.violations == () for t in cheap.trials)
    assert [t.names for t in cheap.trials] == [t.names for t in off.trials]
    cells.append(
        {
            "workload": "gauntlet",
            "kernel": sorted({t.kernel for t in cheap.trials}),
            "n": GAUNTLET_N,
            "trials": GAUNTLET_TRIALS,
            "adversary": [spec.key for spec in GAUNTLET_ADVERSARIES],
            "reps": GAUNTLET_REPS,
            "off_s": round(off_s, 6),
            "cheap_s": round(cheap_s, 6),
            "overhead": round(cheap_s / off_s - 1.0, 4),
            "ceiling": GAUNTLET_CEILING,
        }
    )

    payload = {
        "benchmark": "monitor",
        "workload": (
            "run_batch wall clock, monitor='off' vs monitor='cheap'; "
            "stacked = failure-free vectorized cells (StackedMonitor "
            "ufunc screens), gauntlet = certified-adversary grid on the "
            "columnar crash engine (scalar per-round predicates)"
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
