"""The trial-stacked crash engine: mined pins, overruns, cell planning.

The stacked crash engine extends the failure-free stack with per-trial
status columns, per-round crash masks, and an exact reproduction of the
columnar engine's AdversaryContext/clamp protocol — so whole crash
cells (certified adversaries, halt-on-name, schedule candidates from
the hunt) run as one ``(T*n,)`` pass.  That every trial of such a cell
is **bit-for-bit identical** to running it alone on the columnar (and
hence reference) kernel is the differential oracle's job
(``tests/test_oracle.py``); this file keeps the mined nine-round
schedule, per-trial overrun isolation, and how ``plan_tasks`` decides
which crash cells stack.
"""

from __future__ import annotations

import pytest

from repro.errors import RoundLimitExceeded
from repro.ids import sparse_ids
from repro.search.schedule import CrashEvent, Schedule
from repro.sim.batch import (
    MIN_STREAMS,
    AdversarySpec,
    TrialSpec,
    plan_tasks,
    run_batch,
    run_cell,
    run_trial,
)
from repro.sim.runner import run_renaming
from repro.sim.vectorized import run_stacked_cell, vectorized_available

needs_numpy = pytest.mark.skipif(
    not vectorized_available(), reason="numpy not installed (the .[fast] extra)"
)

COMPARED_FIELDS = (
    "rounds",
    "failures",
    "messages_sent",
    "messages_delivered",
    "last_round_named",
    "names",
    "error",
    "violations",
)


def _crash_specs(algorithm, n, seeds, adversary, *, kernel="auto"):
    return [
        TrialSpec(
            algorithm=algorithm,
            n=n,
            seed=seed,
            adversary=(
                adversary
                if isinstance(adversary, AdversarySpec)
                else AdversarySpec.parse(adversary)
            ),
            check=True,
            kernel=kernel,
            capture_errors=True,
        )
        for seed in seeds
    ]


def assert_stack_matches_per_trial(specs):
    """The stacked cell's rows == the per-trial columnar/auto rows."""
    per_trial = [run_trial(spec) for spec in specs]
    stacked = run_cell(specs)
    assert len(stacked) == len(per_trial)
    for want, got in zip(per_trial, stacked):
        for field in COMPARED_FIELDS:
            assert getattr(got, field) == getattr(want, field), (
                field,
                want.spec,
            )


@needs_numpy
class TestStackedCrashDifferential:
    def test_mined_schedule_stacks_to_nine_rounds(self):
        """PR 5's mined counterexample, stacked: same 9-round stall."""
        mined = Schedule.of(16, [CrashEvent(3, 6, ())]).spec()
        seeds = [4301463716303469878 + k for k in range(4)]
        specs = _crash_specs("balls-into-leaves", 16, seeds, mined)
        assert_stack_matches_per_trial(specs)
        rows = run_cell(specs)
        assert rows[0].rounds == 9

    def test_overrun_is_isolated_per_trial(self):
        """One trial hitting the limit must not distort its stack-mates."""
        mined = Schedule.of(16, [CrashEvent(3, 6, ())]).spec()
        seeds = [4301463716303469878, 4301463716303469879]
        adversaries = [mined.build(seed) for seed in seeds]
        cell = run_stacked_cell(
            sparse_ids(16), seeds, policy="random", max_rounds=8,
            adversaries=adversaries,
        )
        expected = []
        for seed in seeds:
            try:
                run = run_renaming(
                    "balls-into-leaves", sparse_ids(16), seed=seed,
                    adversary=mined.build(seed), kernel="columnar", max_rounds=8,
                )
                expected.append(("done", run.rounds))
            except RoundLimitExceeded as error:
                expected.append(("overrun", str(error)))
        got = [
            ("overrun", str(cell.error(t)))
            if cell.error(t) is not None
            else ("done", int(cell.rounds[t]))
            for t in range(cell.trials)
        ]
        assert got == expected
        assert any(flag == "overrun" for flag, _ in got)


@needs_numpy
class TestCrashCellPlanning:
    @pytest.mark.parametrize(
        "algorithm", ["balls-into-leaves", "early-terminating"]
    )
    @pytest.mark.parametrize("adversary", ["none", "random:rate=0.25"])
    def test_auto_cells_respect_the_stream_floor(self, algorithm, adversary):
        """Failure-free or crash, an ``auto`` cell stacks from
        ``MIN_STREAMS`` (trials x n) up and stays per-trial below."""
        assert 31 * 33 == MIN_STREAMS - 1 and 32 * 32 == MIN_STREAMS
        below = _crash_specs(algorithm, 31, range(33), adversary)
        assert plan_tasks(below) == below
        at = _crash_specs(algorithm, 32, range(32), adversary)
        assert plan_tasks(at) == [tuple(at)]

    @pytest.mark.parametrize("adversary", ["none", "random:rate=0.25"])
    def test_pinned_vectorized_cells_take_no_floor(self, adversary):
        """Pinning ``kernel="vectorized"`` stacks a cell far below the
        floor as one task, not as one-trial stacks."""
        specs = _crash_specs(
            "balls-into-leaves", 9, [40 + k for k in range(8)], adversary,
            kernel="vectorized",
        )
        assert plan_tasks(specs) == [tuple(specs)]  # 72 streams

    def test_run_batch_auto_stacks_crash_cells(self):
        # A cell at the stream floor: 32 trials x n=32 is 1024 streams.
        specs = _crash_specs(
            "balls-into-leaves", 32, [40 + k for k in range(32)],
            "random:rate=0.25",
        )
        tasks = plan_tasks(specs)
        assert len(tasks) == 1 and isinstance(tasks[0], tuple)
        batch = run_batch(specs)
        per_trial = [run_trial(spec) for spec in specs]
        assert {trial.kernel for trial in batch.trials} == {"vectorized"}
        for want, got in zip(per_trial, batch.trials):
            for field in COMPARED_FIELDS:
                assert getattr(got, field) == getattr(want, field)

    def test_mixed_cells_stack_distinct_schedules(self):
        """The hunt's batching hint: same cell shape, different plans.

        A generation at the stream floor: 64 trials x n=16 is 1024
        streams."""
        specs = []
        for k in range(64):
            schedule = Schedule.of(16, [CrashEvent(2 + (k % 3), k % 16, ())])
            specs.append(
                TrialSpec(
                    algorithm="balls-into-leaves", n=16, seed=5000 + k,
                    adversary=schedule.spec(), check=False, kernel="auto",
                    capture_errors=True,
                )
            )
        assert len(plan_tasks(specs)) == 64  # one-trial cells...
        mixed = plan_tasks(specs, mixed=True)
        assert len(mixed) == 1 and isinstance(mixed[0], tuple)  # ...one stack
        batch = run_batch(specs, mixed_cells=True)
        per_trial = [run_trial(spec) for spec in specs]
        assert {trial.kernel for trial in batch.trials} == {"vectorized"}
        for want, got in zip(per_trial, batch.trials):
            for field in COMPARED_FIELDS:
                assert getattr(got, field) == getattr(want, field)

    def test_mixed_cells_leave_omit_genotypes_per_trial(self):
        """One ``schedule`` name covers crash-only and omit genotypes,
        so each is probed on its own: the omit genotypes behind a
        stackable run of crash-only ones stay per-trial (the stacked
        engine applies crashes only and would drop their omissions).

        The crash-only run is at the stream floor: 64 trials x n=16."""
        kinds = ["crash"] * 64 + ["omit"] * 3
        specs = [
            TrialSpec(
                algorithm="balls-into-leaves", n=16, seed=5000 + k,
                adversary=Schedule.of(
                    16, [CrashEvent(2, k % 16, (), kind)]
                ).spec(),
                check=False, kernel="auto", capture_errors=True,
            )
            for k, kind in enumerate(kinds)
        ]
        assert plan_tasks(specs, mixed=True) == [tuple(specs[:64])] + specs[64:]
