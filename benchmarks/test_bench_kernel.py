"""Kernel wall-clock: reference engine vs columnar vs trial-stacked.

Times one failure-free Balls-into-Leaves trial per kernel at
n in {256, 4096, 65536}, a *crashing-adversary* workload
(random 10% crash rate, halt-on-name, the columnar crash engine's
home turf) at n in {256, 1024, 4096}, an *omission-adversary*
workload (targeted link silencing via the delivery-mask columns —
the certified fault family must keep the fast path, so the claim is
measured, not asserted) at n in {256, 1024}, a *trial-throughput*
workload — whole 100-trial failure-free cells through the batch API,
columnar per-trial vs one vectorized stack — a *crash trial-throughput*
workload (whole crash cells on the stacked crash engine vs per-trial
columnar), and an *RNG-share* microbenchmark (scalar vs batched SHA-256
seed derivation, scalar C vs vectorized MT seeding) — and writes the
measurements to ``BENCH_kernel.json`` at the repository root — the
perf-trajectory artifact the CI benchmark job uploads.

Trial-throughput cells measure what scenario-matrix sweeps actually
pay.  Two regimes matter and both are recorded: *early-terminating*
cells are deterministic failure-free (no draws), so stacking removes
nearly all interpreter cost (~5x on one core); *balls-into-leaves*
cells must reproduce every per-ball Mersenne-Twister stream bit for bit
(SHA-256 seed derivation + ``init_by_array`` + partial twists — a cost
the scalar kernels pay in C at near-identical efficiency), so their
ceiling is ~3.5x.  Crash trial cells are the hunt/gauntlet regime: a
schedule-compiled candidate and the sandwich adversary stack 2-3x
above the per-trial columnar path at sweep sizes, while a heavy random
workload (budget n-1, 20% rate) is bounded near 1x by per-class state
copies — all three are recorded.  The assertion
floors are set conservatively below the locally measured numbers to
absorb CI-runner variance.

Two reference configurations are measured:

* ``reference`` — the lock-step engine as ``run_renaming`` runs it by
  default (shared equivalence-class view store, itself an earlier exact
  optimization);
* ``reference (faithful)`` — the same engine with the paper-verbatim
  per-ball view store, the executable specification.  It is
  O(n^2 * height) per run, so it is measured at n=256 always and at
  n=4096 only when ``BENCH_KERNEL_FULL=1`` (several minutes).

The columnar kernel's outputs are asserted identical to the reference
run inside the timing loop, so the benchmark cannot silently drift from
the differential contract.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro._version import __version__
from repro.adversary.omission import TargetedOmissionAdversary
from repro.adversary.random_crash import RandomCrashAdversary
from repro.ids import sparse_ids
from repro.sim.runner import run_renaming

SIZES = (256, 4096, 65536)
#: Best-of repetitions per cell, scaled down as trials get longer.
REPS = {256: 5, 4096: 3, 65536: 1}
#: Crashing-adversary cells (the columnar crash engine path).
CRASH_SIZES = (256, 1024, 4096)
CRASH_REPS = {256: 5, 1024: 3, 4096: 2}
CRASH_RATE = 0.10
#: Omission-adversary cells: the certified fault family must *keep* the
#: columnar fast path (the PR's claim), so it is measured like the crash
#: workload, not asserted.  Targeted silencing is the survivable shape
#: at these sizes (i.i.d. loss wedges past the round limit).
OMISSION_SIZES = (256, 1024)
OMISSION_REPS = {256: 5, 1024: 3}
OMISSION_COUNT = 8
OMISSION_WINDOW = (2, 5)
#: Largest n at which the faithful (spec) configuration is timed by
#: default; BENCH_KERNEL_FULL=1 extends it to 4096 (~minutes).
FAITHFUL_DEFAULT_MAX = 256

#: Trial-throughput workload: (algorithm, n, trials, best-of reps,
#: asserted speedup floor).  n=4096 joins under BENCH_KERNEL_FULL=1.
TRIAL_CELLS = (
    ("early-terminating", 1024, 100, 3, 2.5),
    ("balls-into-leaves", 256, 100, 3, 2.0),
    ("balls-into-leaves", 1024, 100, 2, 2.0),
)
TRIAL_CELLS_FULL = (("balls-into-leaves", 4096, 100, 2, 1.2),)

#: Crash trial-throughput workload: (adversary label, adversary spec or
#: None for the compiled hunt candidate, n, trials, reps, floor).  The
#: first two are the hunt/gauntlet regime the stacked crash engine
#: exists for; the random cell is the honest heavy-crash bound.
CRASH_TRIAL_CELLS = (
    ("schedule (hunt candidate)", None, 64, 256, 3, 2.0),
    ("sandwich", "sandwich", 64, 256, 3, 1.5),
    ("random:rate=0.2", "random:rate=0.2", 64, 256, 3, 0.8),
)

SEED = 3
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"


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


def _trial(n, kernel, view_mode="shared"):
    return run_renaming(
        "balls-into-leaves",
        sparse_ids(n),
        seed=SEED,
        kernel=kernel,
        view_mode=view_mode,
    )


def _crash_trial(n, kernel):
    # The adversary is stateful (crash counters, RNG): build a fresh,
    # identically-seeded instance per timed run.
    return run_renaming(
        "balls-into-leaves",
        sparse_ids(n),
        seed=SEED,
        adversary=RandomCrashAdversary(CRASH_RATE, seed=SEED),
        halt_on_name=True,
        kernel=kernel,
    )


def _omission_trial(n, kernel):
    return run_renaming(
        "balls-into-leaves",
        sparse_ids(n),
        seed=SEED,
        adversary=TargetedOmissionAdversary(
            count=OMISSION_COUNT, rounds=OMISSION_WINDOW
        ),
        check=False,  # silenced balls duplicate names; measured, not raised
        kernel=kernel,
    )


# Wall-clock comparison: too flaky for the -x tier-1 gate (same policy as
# test_bench_batch).  The bench-kernel CI job selects it with -m tier2.
@pytest.mark.tier2
def test_bench_kernel_writes_json(capsys):
    faithful_max = (
        4096 if os.environ.get("BENCH_KERNEL_FULL") == "1" else FAITHFUL_DEFAULT_MAX
    )
    cells = []
    for n in SIZES:
        reps = REPS[n]
        columnar_s, columnar_run = _best_of(reps, lambda: _trial(n, "columnar"))
        reference_s, reference_run = _best_of(reps, lambda: _trial(n, "reference"))
        assert columnar_run.kernel == "columnar"
        assert columnar_run.names == reference_run.names
        assert columnar_run.rounds == reference_run.rounds
        faithful_s = None
        if n <= faithful_max:
            faithful_s, faithful_run = _best_of(
                1, lambda: _trial(n, "reference", view_mode="faithful")
            )
            assert faithful_run.names == columnar_run.names
        cells.append(
            {
                "n": n,
                "algorithm": "balls-into-leaves",
                "adversary": "none",
                "seed": SEED,
                "reps": reps,
                "columnar_s": round(columnar_s, 6),
                "reference_s": round(reference_s, 6),
                "reference_faithful_s": (
                    round(faithful_s, 6) if faithful_s is not None else None
                ),
                "speedup_vs_reference": round(reference_s / columnar_s, 2),
                "speedup_vs_faithful": (
                    round(faithful_s / columnar_s, 2)
                    if faithful_s is not None
                    else None
                ),
            }
        )
    # Crashing-adversary workload: the columnar crash engine (receiver
    # equivalence classes + announced-termination lifecycle) against the
    # reference lock-step engine on the same spec.
    for n in CRASH_SIZES:
        reps = CRASH_REPS[n]
        columnar_s, columnar_run = _best_of(reps, lambda: _crash_trial(n, "columnar"))
        reference_s, reference_run = _best_of(reps, lambda: _crash_trial(n, "reference"))
        assert columnar_run.kernel == "columnar"
        assert columnar_run.names == reference_run.names
        assert columnar_run.rounds == reference_run.rounds
        assert columnar_run.crashed == reference_run.crashed
        cells.append(
            {
                "n": n,
                "algorithm": "balls-into-leaves",
                "adversary": f"random:rate={CRASH_RATE},halt_on_name",
                "seed": SEED,
                "reps": reps,
                "columnar_s": round(columnar_s, 6),
                "reference_s": round(reference_s, 6),
                "reference_faithful_s": None,
                "speedup_vs_reference": round(reference_s / columnar_s, 2),
                "speedup_vs_faithful": None,
            }
        )

    # Omission-adversary workload: the certified fault family on the
    # columnar fast path (delivery-mask columns) vs the reference engine.
    for n in OMISSION_SIZES:
        reps = OMISSION_REPS[n]
        columnar_s, columnar_run = _best_of(
            reps, lambda: _omission_trial(n, "columnar")
        )
        reference_s, reference_run = _best_of(
            reps, lambda: _omission_trial(n, "reference")
        )
        assert columnar_run.kernel == "columnar"
        assert columnar_run.names == reference_run.names
        assert columnar_run.rounds == reference_run.rounds
        assert (
            columnar_run.metrics.total_omissions
            == reference_run.metrics.total_omissions
            > 0
        )
        cells.append(
            {
                "n": n,
                "algorithm": "balls-into-leaves",
                "adversary": (
                    f"omission-targeted:count={OMISSION_COUNT},"
                    f"rounds={OMISSION_WINDOW[0]}-{OMISSION_WINDOW[1]}"
                ),
                "seed": SEED,
                "reps": reps,
                "columnar_s": round(columnar_s, 6),
                "reference_s": round(reference_s, 6),
                "reference_faithful_s": None,
                "speedup_vs_reference": round(reference_s / columnar_s, 2),
                "speedup_vs_faithful": None,
            }
        )

    # Trial-throughput workload: a whole 100-trial failure-free cell via
    # the batch API — columnar per-trial loop vs one vectorized stack.
    trial_cells = []
    from repro.sim.batch import ScenarioMatrix, run_batch
    from repro.sim.vectorized import vectorized_available

    cells_to_time = TRIAL_CELLS + (
        TRIAL_CELLS_FULL if os.environ.get("BENCH_KERNEL_FULL") == "1" else ()
    )
    if vectorized_available():
        for algorithm, n, trials, reps, floor in cells_to_time:
            def matrix(kernel):
                return ScenarioMatrix.build(
                    [algorithm], [n], trials=trials, base_seed=SEED, kernel=kernel
                )

            columnar_s, columnar_batch = _best_of(
                reps, lambda: run_batch(matrix("columnar"))
            )
            vectorized_s, vectorized_batch = _best_of(
                reps, lambda: run_batch(matrix("vectorized"))
            )
            assert {t.kernel for t in columnar_batch.trials} == {"columnar"}
            assert {t.kernel for t in vectorized_batch.trials} == {"vectorized"}
            # The stacked engine must agree bit for bit inside the
            # timing loop, same policy as the single-trial workloads.
            assert (
                vectorized_batch.cell_stats() == columnar_batch.cell_stats()
            )
            assert [t.names for t in vectorized_batch.trials] == [
                t.names for t in columnar_batch.trials
            ]
            trial_cells.append(
                {
                    "workload": "trial-throughput",
                    "algorithm": algorithm,
                    "n": n,
                    "trials": trials,
                    "adversary": "none",
                    "base_seed": SEED,
                    "reps": reps,
                    "columnar_s": round(columnar_s, 6),
                    "vectorized_s": round(vectorized_s, 6),
                    "speedup_vs_columnar": round(columnar_s / vectorized_s, 2),
                    "floor": floor,
                }
            )

    # Crash trial-throughput workload: whole crash cells, per-trial
    # columnar vs one stacked crash-engine pass.  The schedule cell is
    # a compiled hunt candidate (two silent crashes), i.e. exactly what
    # EXP-HUNT generations evaluate.
    crash_trial_cells = []
    if vectorized_available():
        from repro.search.schedule import CrashEvent, Schedule
        from repro.sim.batch import run_trial
        from repro.sim.specs import AdversarySpec, TrialSpec

        for label, adversary, n, trials, reps, floor in CRASH_TRIAL_CELLS:
            if adversary is None:
                spec_adv = Schedule.of(
                    n, [CrashEvent(3, 6, ()), CrashEvent(5, 2, (0, 1))]
                ).spec()
            else:
                spec_adv = AdversarySpec.parse(adversary)

            def specs(kernel):
                return [
                    TrialSpec(
                        algorithm="balls-into-leaves", n=n, seed=SEED + t,
                        adversary=spec_adv, halt_on_name=True, check=False,
                        kernel=kernel, capture_errors=True,
                    )
                    for t in range(trials)
                ]

            columnar_s, columnar_batch = _best_of(
                reps, lambda: run_batch(specs("columnar"))
            )
            stacked_s, stacked_batch = _best_of(
                reps, lambda: run_batch(specs("auto"))
            )
            assert {t.kernel for t in columnar_batch.trials} == {"columnar"}
            assert {t.kernel for t in stacked_batch.trials} == {"vectorized"}
            # Bit-identity inside the timing loop, same policy as above.
            for want, got in zip(columnar_batch.trials, stacked_batch.trials):
                assert want.rounds == got.rounds
                assert want.names == got.names
                assert want.failures == got.failures
                assert want.messages_delivered == got.messages_delivered
                assert want.error == got.error
            crash_trial_cells.append(
                {
                    "workload": "crash-trial-throughput",
                    "algorithm": "balls-into-leaves",
                    "adversary": label,
                    "n": n,
                    "trials": trials,
                    "halt_on_name": True,
                    "base_seed": SEED,
                    "reps": reps,
                    "columnar_s": round(columnar_s, 6),
                    "vectorized_s": round(stacked_s, 6),
                    "speedup_vs_columnar": round(columnar_s / stacked_s, 2),
                    "floor": floor,
                }
            )

    # RNG-share microbenchmark: the bit-exact per-ball stream costs the
    # stacked kernel pays in NumPy vs what the scalar kernels pay in C.
    rng_share = []
    if vectorized_available():
        from random import Random

        from repro.core.mt19937 import seed_states
        from repro.core.vectorized import derive_ball_seeds
        from repro.ids import sparse_ids as _sparse_ids
        from repro.sim.rng import derive_seed

        rng_n, rng_trials = 1024, 100
        labels = _sparse_ids(rng_n)
        trial_seeds = [
            derive_seed(SEED, "trial", t) for t in range(rng_trials)
        ]
        streams = rng_n * rng_trials

        def scalar_derive():
            return [
                derive_seed(seed, "ball", label)
                for seed in trial_seeds
                for label in labels
            ]

        scalar_sha_s, scalar_seeds = _best_of(2, scalar_derive)
        batched_sha_s, batched = _best_of(
            3, lambda: derive_ball_seeds(trial_seeds, labels)
        )
        assert [int(s) for s in batched] == scalar_seeds
        scalar_mt_s, _ = _best_of(
            2, lambda: [Random(seed) for seed in scalar_seeds]
        )
        seed_states(batched)  # warm the cached base state
        vector_mt_s, _ = _best_of(3, lambda: seed_states(batched))
        rng_share = [
            {
                "workload": "rng-share",
                "streams": streams,
                "sha_scalar_per_ball_s": round(scalar_sha_s, 6),
                "sha_batched_openssl_s": round(batched_sha_s, 6),
                "mt_seed_scalar_c_s": round(scalar_mt_s, 6),
                "mt_seed_vectorized_s": round(vector_mt_s, 6),
                "sha_batch_speedup": round(scalar_sha_s / batched_sha_s, 2),
                "mt_seed_ratio_vs_c": round(vector_mt_s / scalar_mt_s, 2),
            }
        ]

    payload = {
        "benchmark": "kernel",
        "workload": (
            "run_renaming, balls-into-leaves, best-of-reps wall clock; "
            "failure-free cells plus a crashing-adversary workload "
            "(random 10% crash rate, halt-on-name) and an omission-"
            "adversary workload (targeted link silencing, certified "
            "fault family) on the columnar "
            "crash engine; trial_cells = 100-trial failure-free cells "
            "via run_batch, columnar per-trial vs one vectorized stack; "
            "crash_trial_cells = whole crash cells on the stacked crash "
            "engine vs per-trial columnar; rng_share = scalar vs "
            "vectorized seed derivation and MT seeding"
        ),
        "version": __version__,
        "python": platform.python_version(),
        "notes": (
            "reference = lock-step engine with the shared equivalence-class "
            "store (itself an exact optimization); reference_faithful = the "
            "paper-verbatim per-ball store (the executable spec, O(n^2*h): "
            "measured at small n by default, at 4096 with BENCH_KERNEL_FULL=1). "
            "trial_cells: deterministic (early-terminating) cells stack to "
            "~5-6x on one core; balls-into-leaves cells are bounded ~3.5x "
            "serial by bit-exact per-ball MT stream reproduction (SHA-256 "
            "derivation + init_by_array + twists, 65-77% of the stacked "
            "cell), which the scalar kernels pay in C at near-identical "
            "efficiency. crash_trial_cells: schedule/sandwich "
            "cells (the hunt regime) stack 2-3x; heavy random crash "
            "cells are bounded near 1x by per-class state copies"
        ),
        "cells": cells,
        "trial_cells": trial_cells,
        "crash_trial_cells": crash_trial_cells,
        "rng_share": rng_share,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    with capsys.disabled():
        print()
        for cell in cells:
            faithful = (
                f"  faithful {cell['reference_faithful_s']:.3f}s "
                f"({cell['speedup_vs_faithful']:.0f}x)"
                if cell["reference_faithful_s"] is not None
                else ""
            )
            print(
                f"n={cell['n']:>6}: columnar {cell['columnar_s']:.3f}s  "
                f"reference {cell['reference_s']:.3f}s "
                f"({cell['speedup_vs_reference']:.1f}x){faithful}"
            )
        for cell in trial_cells:
            print(
                f"{cell['algorithm']:>18} n={cell['n']:>5} x{cell['trials']}: "
                f"vectorized {cell['vectorized_s']:.3f}s  "
                f"columnar {cell['columnar_s']:.3f}s "
                f"({cell['speedup_vs_columnar']:.1f}x)"
            )
        for cell in crash_trial_cells:
            print(
                f"crash {cell['adversary']:>22} n={cell['n']:>4} "
                f"x{cell['trials']}: "
                f"stacked {cell['vectorized_s']:.3f}s  "
                f"columnar {cell['columnar_s']:.3f}s "
                f"({cell['speedup_vs_columnar']:.1f}x)"
            )
        for cell in rng_share:
            print(
                f"rng-share {cell['streams']} streams: "
                f"sha scalar {cell['sha_scalar_per_ball_s']:.3f}s  "
                f"batched {cell['sha_batched_openssl_s']:.3f}s | "
                f"mt seed C {cell['mt_seed_scalar_c_s']:.3f}s  "
                f"vectorized {cell['mt_seed_vectorized_s']:.3f}s"
            )
        print(f"[written to {OUTPUT}]")

    # The fast path must actually be fast: comfortably ahead of the
    # default reference configuration everywhere, and an order of
    # magnitude ahead of the spec configuration wherever that is timed.
    # Crash cells pay for adversary planning and per-class copies, so
    # their bar is lower than the failure-free single-view path's.
    for cell in cells:
        floor = 1.5 if cell["adversary"] != "none" else 2.0
        assert cell["speedup_vs_reference"] > floor, cell
        if cell["speedup_vs_faithful"] is not None:
            assert cell["speedup_vs_faithful"] >= 10.0, cell
    for cell in trial_cells:
        assert cell["speedup_vs_columnar"] >= cell["floor"], cell
    for cell in crash_trial_cells:
        assert cell["speedup_vs_columnar"] >= cell["floor"], cell
    # The batched SHA derivation must comfortably beat the per-ball
    # Python loop; the MT ratio is recorded but unasserted (it compares
    # NumPy against CPython's C init_by_array, which varies by BLAS/CPU).
    for cell in rng_share:
        assert cell["sha_batch_speedup"] >= 2.0, cell
