"""Which modules each CLI verb loads.

Balls-into-Leaves renames in O(log log n) rounds, so at everyday sizes a
``python -m repro`` run spends as much time importing as simulating.
Each verb imports only what it executes: one that never runs the
trial-stacked engine must not load NumPy or :mod:`repro.core.vectorized`,
one that never runs a trial loads no simulation module, and one that
starts no process pool loads no :mod:`multiprocessing`.  Every case runs
the verb in a fresh interpreter and inspects ``sys.modules`` after
``main()`` returns.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.mt19937 import HAVE_NUMPY

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs ``main(argv)`` and prints the loaded module names as a last line.
PROBE = """
import json, sys
from repro.cli import main
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exit_:
    code = exit_.code
print()
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

ENGINE = {"numpy", "repro.core.vectorized"}
#: The packages a verb that runs no trial leaves unloaded.
SIMULATION = {"repro.sim", "repro.search", "repro.core", "repro.monitor",
              "repro.adversary"}

ARGV = {
    "version": ["--version"],
    "list": ["list"],
    "lint-rules": ["lint", "--rules"],
    "stats": ["stats", "rows.jsonl", "hunt.jsonl"],
    "explore-stored": ["explore", "scenario.json", "--out", "t.html"],
    "explore-replay": ["explore", "scenario.json", "--replay", "--out", "t.html"],
    "demo": ["demo", "--n", "8"],
    # Below the stacking floor (trials x n < 1024 streams), failure-free
    # or crash, monitored or not: per-trial columnar, no probe.
    "batch-below-floor": ["batch", "--sizes", "16", "--trials", "4"],
    "crash-batch-below-floor": ["batch", "--sizes", "16", "--adversary",
                                "random:rate=0.1", "--trials", "4"],
    "monitored-batch-below-floor": ["batch", "--sizes", "16", "--adversary",
                                    "random:rate=0.1", "--trials", "4",
                                    "--monitor", "cheap"],
    "hunt": ["hunt", "--n", "16", "--budget", "20", "--fault-family", "mixed",
             "--baseline-trials", "2", "--no-scenario"],
    # Every stage below the floor (32 trials x n=16 = 512 streams): the
    # same rule as a batch cell, so the splitting stages run columnar.
    "tail-below-floor": ["tail", "--n", "16", "--trials", "32", "--k-min",
                         "2", "--k-max", "3", "--chunk", "8"],
    "run-smoke": ["run", "EXP-T3", "--scale", "smoke"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A stored hunt (scenario, trace, rows) and batch rows to inspect."""
    path = tmp_path_factory.mktemp("imports")
    assert main(
        ["hunt", "--n", "8", "--budget", "6", "--seed", "2",
         "--baseline-trials", "1", "--no-shrink",
         "--out", str(path / "hunt.jsonl"),
         "--scenario-out", str(path / "scenario.json")]
    ) == 0
    assert main(
        ["batch", "--sizes", "8", "--trials", "2",
         "--out", str(path / "rows.jsonl")]
    ) == 0
    return path


@pytest.fixture(scope="module")
def modules_after(workdir):
    """``sys.modules`` after one command of :data:`ARGV`, each run once."""
    seen = {}

    def probe(verb):
        if verb not in seen:
            seen[verb] = loaded_modules(ARGV[verb], workdir)
        return seen[verb]

    return probe


def loaded_modules(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return set(report["modules"])


@pytest.mark.parametrize("verb", list(ARGV))
def test_verb_loads_no_array_engine(modules_after, verb):
    assert not modules_after(verb) & ENGINE


@pytest.mark.parametrize("verb", ["version", "lint-rules", "stats"])
def test_verb_that_runs_no_trial_loads_no_simulation_module(modules_after, verb):
    packages = {".".join(name.split(".")[:2]) for name in modules_after(verb)}
    assert not packages & SIMULATION


#: What reading a stored trace has no use for: the trial engine, the
#: adversaries (a package: loading any of them loads all eight) and the
#: protocol core.
TRIAL_ENGINE = {"repro.sim.batch", "repro.sim.runner", "repro.sim.simulator",
                "repro.sim.checker", "repro.adversary", "repro.core", "numpy"}


def test_explore_of_a_stored_trace_loads_no_trial_engine(modules_after):
    assert not modules_after("explore-stored") & TRIAL_ENGINE


def test_explore_replay_loads_the_trial_engine(modules_after):
    assert "repro.sim.batch" in modules_after("explore-replay")


@pytest.mark.parametrize(
    "verb",
    ["explore-stored", "stats", "batch-below-floor", "hunt", "tail-below-floor"],
)
def test_serial_verb_loads_no_multiprocessing(modules_after, verb):
    assert "multiprocessing" not in modules_after(verb)


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")
def test_stackable_batch_loads_the_array_engine(workdir):
    # 16 trials x 64 balls = 1024 streams: exactly the stacking floor.
    modules = loaded_modules(["batch", "--sizes", "64", "--trials", "16"], workdir)
    assert ENGINE <= modules


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")
@pytest.mark.parametrize("monitor", ["off", "cheap"])
def test_stacked_crash_batch_loads_no_masked_arrays(workdir, monitor):
    # A stacked crash cell at the floor; a plain np.unique would load
    # numpy.ma (10 ms of import) for its masked-array check.
    modules = loaded_modules(
        ["batch", "--sizes", "64", "--adversary", "random:rate=0.1",
         "--trials", "16", "--monitor", monitor],
        workdir,
    )
    assert ENGINE <= modules
    assert "numpy.ma" not in modules
