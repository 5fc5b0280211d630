"""The ``trace={off,cheap,full}`` knob beyond plain kernel equality.

That a ``full`` reference trace and a ``cheap`` fast-path trace of the
*same* execution project identically onto the shared event schema
(:func:`repro.sim.trace.shared_events`), and that tracing never
perturbs the run, is the differential oracle's job
(``tests/test_oracle.py``).  This file keeps the cheap-only extras, mode
selection, the jsonl persistence layer (round trips preserve every
event), lazy stacked traces, and the partial trace a run that dies
mid-flight hands to ``capture_errors`` rows.
"""

from __future__ import annotations

import pytest

from repro.adversary.random_crash import RandomCrashAdversary
from repro.core.mt19937 import HAVE_NUMPY
from repro.errors import ConfigurationError, RoundLimitExceeded
from repro.ids import sparse_ids
from repro.search.schedule import CrashEvent, Schedule
from repro.sim.batch import TrialSpec, run_trial
from repro.sim.runner import run_renaming
from repro.sim.trace import (
    TRACE_MODES,
    Trace,
    check_trace_mode,
    read_trace,
    shared_events,
    trace_filename,
    write_trace,
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")


def _crash_schedule(n):
    return Schedule.of(
        n, [CrashEvent(1, 0, (1,)), CrashEvent(2, min(2, n - 1))]
    )


def _omit_schedule(n):
    return Schedule.of(
        n,
        [
            CrashEvent(1, 1 % n, (2 % n,), "omit"),
            CrashEvent(3, 0, (), "omit"),
        ],
    )


#: Adversaries by key: the empty cell, both scheduled fault families
#: (columnar-certified), and a seeded random crasher.
ADVERSARIES = {
    "none": lambda n, seed: None,
    "random-crash": lambda n, seed: RandomCrashAdversary(0.15, seed=seed),
    "crash-schedule": lambda n, seed: _crash_schedule(n).compile(sparse_ids(n)),
    "omission-schedule": lambda n, seed: _omit_schedule(n).compile(sparse_ids(n)),
}


def _run(algorithm, n, seed, kernel, adversary_key="none", **kwargs):
    return run_renaming(
        algorithm,
        sparse_ids(n),
        seed=seed,
        adversary=ADVERSARIES[adversary_key](n, seed),
        kernel=kernel,
        **kwargs,
    )


class TestSharedSchemaEquivalence:
    """Reference ``full`` == columnar ``cheap`` under ``shared_events``."""

    def test_omission_events_reach_both_traces(self):
        full = _run("balls-into-leaves", 8, 0, "reference",
                    "omission-schedule", trace="full", check=False)
        cheap = _run("balls-into-leaves", 8, 0, "columnar",
                     "omission-schedule", trace="cheap", check=False)
        omits = [e for e in shared_events(full.trace) if e[1] == "omit"]
        assert omits
        assert omits == [
            e for e in shared_events(cheap.trace) if e[1] == "omit"
        ]

    @needs_numpy
    def test_columnar_vs_vectorized_cheap_extras(self):
        """The cheap extras agree across fast kernels too: ``name``
        events are identical; ``pos`` snapshots are columnar-only."""
        columnar = _run("balls-into-leaves", 16, 2, "columnar",
                        "random-crash", trace="cheap")
        stacked = _run("balls-into-leaves", 16, 2, "vectorized",
                       "random-crash", trace="cheap")

        def names(run):
            return sorted(
                (e.round_no, tuple(sorted(e.data.items())))
                for e in run.trace.events("name")
            )

        assert names(columnar) == names(stacked)
        assert columnar.trace.events("pos")
        assert not stacked.trace.events("pos")


class TestTraceNeverPerturbs:
    """Observation modes must not change what is observed."""

    def test_spec_digest_ignores_trace_mode(self):
        spec = TrialSpec(algorithm="balls-into-leaves", n=8, seed=0)
        traced = TrialSpec(
            algorithm="balls-into-leaves", n=8, seed=0, trace="cheap"
        )
        assert spec.digest() == traced.digest()


class TestModeSelection:
    def test_mode_constants(self):
        assert TRACE_MODES == ("off", "cheap", "full")
        for mode in TRACE_MODES:
            assert check_trace_mode(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trace mode"):
            run_renaming("balls-into-leaves", sparse_ids(4), trace="verbose")

    def test_legacy_sink_pins_reference_full(self):
        sink = Trace()
        run = run_renaming(
            "balls-into-leaves", sparse_ids(8), seed=1, trace=sink
        )
        assert run.trace is sink
        assert run.trace_mode == "full"
        assert run.kernel == "reference"
        assert len(sink)

    def test_full_mode_falls_back_to_reference_under_auto(self):
        run = run_renaming(
            "balls-into-leaves", sparse_ids(8), seed=1, trace="full"
        )
        assert run.kernel == "reference"
        cheap = run_renaming(
            "balls-into-leaves", sparse_ids(8), seed=1, trace="cheap"
        )
        assert cheap.kernel != "reference"
        assert shared_events(run.trace) == shared_events(cheap.trace)


class TestTraceFiles:
    def _sample_trace(self):
        return _run("balls-into-leaves", 9, 2, "columnar", "crash-schedule",
                    trace="cheap")

    def test_filename_is_content_addressed(self):
        spec = TrialSpec(algorithm="balls-into-leaves", n=9, seed=2)
        assert trace_filename(spec.digest()) == f"trace-{spec.digest()}.jsonl"

    def test_jsonl_round_trip(self, tmp_path):
        run = self._sample_trace()
        path = str(tmp_path / trace_filename("deadbeef"))
        write_trace(run.trace, path, digest="deadbeef", meta={"n": 9})
        header, loaded = read_trace(path)
        assert header["format"] == "repro-trace/1"
        assert header["digest"] == "deadbeef"
        assert header["meta"] == {"n": 9}
        assert loaded == run.trace

    def test_non_trace_file_rejected(self, tmp_path):
        path = str(tmp_path / "not-a-trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "something-else"}\n')
        with pytest.raises(ConfigurationError, match="not a repro-trace/1"):
            read_trace(path)

    def test_event_field_named_like_a_record_parameter_reads_back(self, tmp_path):
        path = tmp_path / "edited.jsonl"
        path.write_text(
            '{"format":"repro-trace/1"}\n{"r":2,"kind":"note","round_no":7}\n',
            encoding="utf-8",
        )
        _, trace = read_trace(str(path))
        assert trace.events("note")[0].data == {"round_no": 7}

    def test_empty_trace_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w", encoding="utf-8").close()
        with pytest.raises(ConfigurationError, match="empty trace file"):
            read_trace(path)


@needs_numpy
class TestLazyStackedTrace:
    """Stacked cheap traces are lazy views; reads and pickles agree."""

    def test_pickle_round_trip_materializes(self):
        import pickle

        run = _run("balls-into-leaves", 16, 2, "vectorized", "random-crash",
                   trace="cheap")
        clone = pickle.loads(pickle.dumps(run.trace))
        assert clone == run.trace
        assert clone.events("round")

    def test_repeated_reads_are_stable(self):
        run = _run("balls-into-leaves", 16, 2, "vectorized", trace="cheap")
        assert run.trace.events() == run.trace.events()
        assert len(run.trace) == len(run.trace.events())

    def test_process_executor_rows_carry_equal_traces(self):
        from repro.sim.batch import ScenarioMatrix, run_batch

        matrix = ScenarioMatrix.build(
            ["balls-into-leaves"], [16], ("none",),
            trials=3, base_seed=1, kernel="vectorized", trace="cheap",
        )
        serial = run_batch(matrix, executor="serial")
        process = run_batch(matrix, executor="process", workers=2)
        serial_traces = [t.trace for t in serial.trials]
        assert all(trace is not None for trace in serial_traces)
        assert serial_traces == [t.trace for t in process.trials]


class TestPartialTraceOnError:
    def test_round_limit_error_carries_partial_trace(self):
        with pytest.raises(RoundLimitExceeded) as excinfo:
            run_renaming(
                "balls-into-leaves",
                sparse_ids(16),
                seed=0,
                kernel="columnar",
                trace="cheap",
                max_rounds=2,
            )
        partial = excinfo.value.partial_trace
        assert partial is not None
        assert {e.round_no for e in partial.events("round")} == {1, 2}

    def test_capture_errors_row_keeps_events(self):
        # One dropped hello splits ball 1's view of the tree (the shape
        # the omission hunts mine); the run dies on a check failure, and
        # the captured row must still carry every event recorded so far.
        schedule = Schedule.of(
            16, [CrashEvent(1, 1, (11,), "omit")]
        )
        spec = TrialSpec(
            algorithm="balls-into-leaves",
            n=16,
            seed=7,
            adversary=schedule.spec(),
            capture_errors=True,
            trace="cheap",
        )
        result = run_trial(spec)
        assert result.error is not None
        assert result.trace is not None
        assert result.trace.events("omit")
        assert result.trace.events("round")
