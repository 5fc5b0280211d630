"""End-to-end CLI profile of ``python -m repro``.

Times real ``python -m repro ...`` processes from spawn to exit, one at a
time: a closed loop with one client, driven from this one process.  A
short fixed calibration process runs before and after each timed
invocation, and the times are scaled with it to a reference host speed,
because a shared host's speed changes from second to second.  Every
output is checked.  Then each workload runs again through ``traced.py``,
which attributes the time to layers.  From the repository root::

    python benchmarks/profile/run.py --seed 0 --out results.json
    python benchmarks/profile/run.py --workload hunt --seed 3 --seconds 12 --trace 0
    python benchmarks/profile/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With a single
``--workload`` and ``--trace 0`` the metrics are the ``end_to_end`` list
of ``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer``
list.  Otherwise every metric is prefixed with its workload's name.
README.md describes the workloads and metrics; ``compare.py`` compares
result files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
#: Gitignored; every run works in a fresh directory below it and removes it.
SCRATCH = HERE / "results"

#: Timed rounds per workload without ``--seconds``.
ROUNDS = 40
#: A ``repro --version`` probe follows every PROBE_EVERY-th round, and a
#: run takes at least MIN_PROBES of them.
PROBE_EVERY = 4
MIN_PROBES = 10
#: Traced rounds per workload (the minimum under ``--seconds``).
TRACED_ROUNDS = 3
#: Seeds one run cycles through: round i uses ``seed * VARIANTS + i %
#: VARIANTS``.  The cost of hunt and tail depends on the seed, so each
#: run measures several inputs and runs with different ``--seed`` agree.
VARIANTS = 8
#: An invocation running longer than this is killed and counts as failed.
INVOCATION_TIMEOUT_S = 120

#: A fixed child process of about 40 ms that runs before and after every
#: timed round and probe, to measure how fast the host is then.  On a
#: shared host every process slows by up to 2x for seconds at a time;
#: process start-up slows with it, which an in-process loop does not
#: show.  ``-I -S`` keeps ``PYTHONPATH`` and the program under test out of
#: it, so no change to ``src/`` can move it.
CALIBRATION = [
    sys.executable,
    "-I",
    "-S",
    "-c",
    "x = 0\n"
    "for i in range(100000):\n"
    "    x += i * i % 7\n"
    "import json\n"
    "json.loads(json.dumps([{'k': i, 'v': str(i)} for i in range(5000)]))\n",
]
#: The calibration's wall clock on the quiet two-core host the workloads
#: were sized on.  A timed wall is scaled by REFERENCE_S over the mean of
#: the calibrations around it, so it reads as seconds on that host at its
#: quiet speed.
REFERENCE_S = 0.040

E2E_UNITS = {
    "setup_s": "s",
    "wall_s.p50": "s",
    "wall_s.p75": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A command's output breaks its workload's contract."""


class HarnessError(Exception):
    """The benchmark cannot run here."""


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonl(path: Path) -> List[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except (OSError, ValueError) as error:
        raise CheckFailed(f"cannot read {path.name}: {error}") from None


# ------------------------------------------------------------------ workloads

#: The outcome columns of a batch row.  ``kernel`` and the diagnostic
#: columns are left out: an engine change that keeps every outcome keeps
#: the digest.
BATCH_OUTCOME = (
    "algorithm",
    "n",
    "adversary",
    "seed",
    "rounds",
    "failures",
    "messages_sent",
    "messages_delivered",
    "last_round_named",
    "error",
)


class Workload:
    """One workload: the ``repro`` commands of a round and their contract."""

    #: What ``work_per_s`` counts.
    unit = ""
    #: Files a round writes; removed before each round so none is stale.
    outputs: Tuple[str, ...] = ()

    def fixtures(self, seed: int) -> List[List[str]]:
        """Commands that make the inputs for ``seed``, run once at set-up."""
        return []

    def commands(self, seed: int) -> List[List[str]]:
        """The ``repro`` argument lists of one round."""
        raise NotImplementedError

    def check(self, cwd: Path, stdouts: List[str]) -> Tuple[int, str]:
        """Validate a round's outputs; returns (work done, outcome digest)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Batch(Workload):
    """``repro batch`` over one scenario matrix, with the spec check on."""

    algorithms: str
    sizes: str
    adversaries: Tuple[str, ...]
    trials: int
    unit = "trials"
    outputs = ("rows.jsonl",)

    def commands(self, seed: int) -> List[List[str]]:
        argv = ["batch", "--algorithms", self.algorithms, "--sizes", self.sizes]
        for adversary in self.adversaries:
            argv += ["--adversary", adversary]
        argv += ["--trials", str(self.trials), "--seed", str(seed)]
        return [argv + ["--out", "rows.jsonl"]]

    def check(self, cwd: Path, stdouts: List[str]) -> Tuple[int, str]:
        rows = _jsonl(cwd / "rows.jsonl")
        cells = (
            len(self.algorithms.split(","))
            * len(self.sizes.split(","))
            * max(1, len(self.adversaries))
        )
        if len(rows) != cells * self.trials:
            raise CheckFailed(f"{len(rows)} rows, expected {cells * self.trials}")
        for row in rows:
            # check=True: the program itself verified namespace, uniqueness
            # and termination, and would have exited nonzero otherwise.
            named = row["last_round_named"]
            if (
                row["check"] is not True
                or row["error"] is not None
                or named is None
                or not 1 <= named <= row["rounds"]
                or not 0 <= row["failures"] < row["n"]
            ):
                raise CheckFailed(
                    f"bad row: n={row['n']} seed={row['seed']} "
                    f"rounds={row['rounds']} named={named} error={row['error']}"
                )
        return len(rows), _digest([[row[key] for key in BATCH_OUTCOME] for row in rows])


@dataclass(frozen=True)
class Hunt(Workload):
    """``repro hunt`` over mixed crash and omission schedules."""

    n: int
    budget: int
    baseline_trials: int
    unit = "schedules"
    outputs = ("hunt.jsonl",)

    def argv(self, seed: int) -> List[str]:
        return [
            "hunt",
            "--n", str(self.n),
            "--budget", str(self.budget),
            "--fault-family", "mixed",
            "--baseline-trials", str(self.baseline_trials),
            "--seed", str(seed),
        ]

    def commands(self, seed: int) -> List[List[str]]:
        return [self.argv(seed) + ["--no-scenario", "--out", "hunt.jsonl"]]

    def check(self, cwd: Path, stdouts: List[str]) -> Tuple[int, str]:
        rows = _jsonl(cwd / "hunt.jsonl")
        if not 1 <= len(rows) <= self.budget:
            raise CheckFailed(f"{len(rows)} schedule rows for a budget of {self.budget}")
        for row in rows:
            if row["n"] != self.n or row["rounds"] < 1 or row["score"] < 0:
                raise CheckFailed(f"bad schedule row {row['index']}")
        shrunk = [line for line in stdouts[0].splitlines() if line.startswith("shrunk to ")]
        if len(shrunk) != 1:
            raise CheckFailed("the report has no shrunk genotype line")
        return len(rows), _digest([rows, shrunk[0]])


@dataclass(frozen=True)
class Tail(Workload):
    """``repro tail`` with a two-worker process pool per stage."""

    n: int
    trials: int
    k_min: int
    k_max: int
    chunk: int
    unit = "trials"
    outputs = ("tail.jsonl",)

    def commands(self, seed: int) -> List[List[str]]:
        return [[
            "tail",
            "--n", str(self.n),
            "--trials", str(self.trials),
            "--k-min", str(self.k_min),
            "--k-max", str(self.k_max),
            "--chunk", str(self.chunk),
            "--executor", "process",
            "--workers", "2",
            "--seed", str(seed),
            "--out", "tail.jsonl",
        ]]

    def check(self, cwd: Path, stdouts: List[str]) -> Tuple[int, str]:
        rows = _jsonl(cwd / "tail.jsonl")
        stages = [row for row in rows if row.get("row") == "stage"]
        estimates = [row for row in rows if row.get("row") == "estimate"]
        if not stages or len(estimates) != 1 or stages[0]["trials"] != self.trials:
            raise CheckFailed("tail rows lack the first stage or the estimate")
        if any(not 0 <= stage["survivors"] <= stage["trials"] for stage in stages):
            raise CheckFailed("a stage has more survivors than trials")
        if not 0.0 <= estimates[0]["estimate"] <= 1.0:
            raise CheckFailed(f"estimate {estimates[0]['estimate']} is not a probability")
        return sum(stage["trials"] for stage in stages), _digest(stages)


@dataclass(frozen=True)
class Inspect(Workload):
    """``repro stats`` and ``repro explore`` over stored hunt and batch output."""

    hunt: Hunt
    rows: Batch
    unit = "commands"
    outputs = ("stats.txt", "timeline.html")

    def fixtures(self, seed: int) -> List[List[str]]:
        return [
            self.hunt.argv(seed) + ["--out", "hunt.jsonl", "--scenario-out", "scenario.json"],
            self.rows.commands(seed)[0],
        ]

    def commands(self, seed: int) -> List[List[str]]:
        return [
            ["stats", "rows.jsonl", "hunt.jsonl", "--out", "stats.txt"],
            ["explore", "scenario.json", "--out", "timeline.html"],
        ]

    def check(self, cwd: Path, stdouts: List[str]) -> Tuple[int, str]:
        try:
            stats = (cwd / "stats.txt").read_text(encoding="utf-8")
            html = (cwd / "timeline.html").read_text(encoding="utf-8")
        except OSError as error:
            raise CheckFailed(str(error)) from None
        if not stats.strip() or "<svg" not in html:
            raise CheckFailed("empty summary or a timeline without its SVG")
        if "stored trace" not in stdouts[1]:
            raise CheckFailed("explore replayed instead of reading the stored trace")
        return len(stdouts), _digest([stats, html])


#: Sized so that 40 rounds plus the probes take under 30 s on two quiet
#: cores.  ``tail`` stops at level k=3: three stages on every seed, where
#: k=4 reached a fourth stage on some seeds only.
WORKLOADS: Dict[str, Workload] = {
    "sweep-ff": Batch("balls-into-leaves,early-terminating", "256,1024", (), 24),
    "sweep-faults": Batch(
        "balls-into-leaves", "32,256", ("random:rate=0.1", "sandwich"), 16
    ),
    "hunt": Hunt(16, 200, 2),
    "tail": Tail(256, 64, 2, 3, 32),
    "inspect": Inspect(
        Hunt(16, 200, 2), Batch("balls-into-leaves", "64", ("random:rate=0.1",), 32)
    ),
}

#: ``--smoke``: the same commands on tiny inputs, for the harness's tests.
SMOKE: Dict[str, Workload] = {
    "sweep-ff": Batch("balls-into-leaves,early-terminating", "16,64", (), 4),
    "sweep-faults": Batch(
        "balls-into-leaves", "16,256", ("random:rate=0.1", "sandwich"), 4
    ),
    "hunt": Hunt(8, 20, 1),
    "tail": Tail(64, 16, 2, 3, 8),
    "inspect": Inspect(
        Hunt(8, 20, 1), Batch("balls-into-leaves", "16", ("random:rate=0.1",), 4)
    ),
}

#: Runs every fixture command in one process, so set-up pays the CLI
#: import once.
FIXTURE_SCRIPT = """
import json, os, sys
from repro.cli import main
for cwd, argv in json.loads(sys.argv[1]):
    os.chdir(cwd)
    if main(argv) != 0:
        sys.exit("fixture command failed: repro " + " ".join(argv))
"""


# ---------------------------------------------------------------- statistics


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _metric(value: float, unit: str, samples: Sequence[float]) -> Dict[str, Any]:
    """A metric with its sample count, the samples' quartiles, and
    ``spread``: their quartile distance as a share of the value.

    ``compare.py`` takes ``spread`` for the run-to-run spread when a side
    has a single run.  The spread of a median over independent rounds
    would be narrower, but machine speed drifts over minutes, and
    measured run-to-run spreads are about as wide as this one.
    """
    q1, _, q3 = quartiles(samples)
    spread = (q3 - q1) / abs(value) if value else 0.0
    return {
        "value": value,
        "unit": unit,
        "samples": len(samples),
        "q1": q1,
        "q3": q3,
        "spread": spread,
    }


# ------------------------------------------------------------------ execution


@dataclass
class Round:
    #: Spawn-to-exit wall clock, summed over the round's commands.
    wall: float
    #: ``wall`` at the reference host speed (see :data:`REFERENCE_S`).
    scaled: float
    rss_kb: int
    work: int
    error: str
    traces: List[traced.CommandTrace]


def child_env() -> Dict[str, str]:
    """The environment of every ``repro`` process: this one's, plus ``src``."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def invoke(argv: List[str], cwd: Path) -> Tuple[float, int, int, str, str]:
    """Run one process to its exit.

    Returns ``(wall_s, max_rss_kb, exit_code, stdout, stderr)``.  The RSS
    comes from ``wait4`` on the process, so it covers the pool workers it
    reaped.
    """
    env = child_env()
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_maxrss,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


class WorkloadRun:
    """One workload's rounds, checks and accounting within a run."""

    def __init__(
        self,
        name: str,
        workload: Workload,
        seeds: List[int],
        pins: Dict[str, str],
        work: Path,
        smoke: bool,
    ) -> None:
        self.name = name
        self.smoke = smoke
        self.workload = workload
        self.seeds = seeds
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.missing: set = set()
        #: Seed -> outcome digest: the pinned one, else the first seen.
        self.expected: Dict[int, str] = {int(seed): digest for seed, digest in pins.items()}
        self.traced_digests: Dict[int, str] = {}
        #: Seed -> scaled wall clock of its successful timed rounds.
        self.untraced: Dict[int, List[float]] = {}
        #: Wall clock of every calibration process run so far.
        self.calibrations: List[float] = []
        #: The last calibration, while no invocation has run since.
        self._last: Optional[float] = None
        self.dirs = {seed: work / f"{name}-{seed}" for seed in seeds}
        for directory in self.dirs.values():
            directory.mkdir()
        jobs = [
            [str(self.dirs[seed]), argv] for seed in seeds for argv in workload.fixtures(seed)
        ]
        if jobs:
            made = subprocess.run(
                [sys.executable, "-c", FIXTURE_SCRIPT, json.dumps(jobs)],
                cwd=work,
                env=child_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=INVOCATION_TIMEOUT_S * len(jobs),
            )
            if made.returncode != 0:
                self._fail(f"fixtures: {made.stderr.strip()[-300:]}")

    def _fail(self, error: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)
        print(f"[{self.name}] failed: {error}", file=sys.stderr)

    def calibrate(self) -> float:
        """Run the calibration process; returns its wall clock."""
        seconds, _, code, _, stderr = invoke(CALIBRATION, self.dirs[self.seeds[0]])
        if code != 0:
            raise HarnessError(f"the calibration process exited {code}: {stderr.strip()[-300:]}")
        self.calibrations.append(seconds)
        return seconds

    def _before(self) -> float:
        """The calibration just before the next timed invocation: the one
        that closed the previous invocation, else a fresh one."""
        before, self._last = self._last, None
        return before if before is not None else self.calibrate()

    def _scale_since(self, before: float) -> float:
        """Calibrate again; returns the scale of what ran since ``before``.

        The host can change speed in the middle of a round, so the scale
        is REFERENCE_S over the mean of the calibrations on either side.
        The closing calibration opens the next invocation.
        """
        self._last = self.calibrate()
        return 2 * REFERENCE_S / (before + self._last)

    def round(self, seed: int, tracing: bool = False) -> Round:
        """Run the workload's commands once for ``seed`` and check them."""
        cwd = self.dirs[seed]
        for output in self.workload.outputs:
            (cwd / output).unlink(missing_ok=True)
        before = self._before()
        wall, rss_kb, stdouts, traces, error = 0.0, 0, [], [], ""
        for argv in self.workload.commands(seed):
            spans = None
            if tracing:
                spans = Path(tempfile.mkdtemp(prefix="spans-", dir=cwd))
                command = [sys.executable, str(HERE / "traced.py"), str(spans), *argv]
            else:
                command = [sys.executable, "-m", "repro", *argv]
            seconds, rss, code, stdout, stderr = invoke(command, cwd)
            wall += seconds
            rss_kb = max(rss_kb, rss)
            stdouts.append(stdout)
            if code != 0:
                error = f"repro {argv[0]} exited {code}: {stderr.strip()[-300:]}"
            elif spans is not None:
                try:
                    trace = traced.read_command(str(spans), seconds)
                except (OSError, ValueError, KeyError) as failure:
                    error = f"unreadable spans: {failure}"
                else:
                    traces.append(trace)
                    self.missing.update(trace.missing)
                    if abs(traced.reconcile(trace)) > 1e-6:
                        error = "coordinator spans do not nest: self times miss the wall clock"
            if spans is not None:
                shutil.rmtree(spans)
            if error:
                break
        scale = self._scale_since(before)
        work, digest = 0, ""
        if not error:
            try:
                work, digest = self.workload.check(cwd, stdouts)
            except CheckFailed as failure:
                error = str(failure)
            except (LookupError, TypeError) as failure:
                error = f"unexpected output shape: {failure!r}"
        if not error:
            expected = self.expected.setdefault(seed, digest)
            if tracing:
                self.traced_digests[seed] = digest
            if digest != expected:
                error = f"outcome digest {digest[:12]} differs from {expected[:12]} (seed {seed})"
        if error:
            self._fail(error)
        else:
            self.attempted += 1
        return Round(wall, wall * scale, rss_kb, work, error, traces)

    def probe(self) -> Tuple[float, float]:
        """Time ``repro --version``, the import and parser floor; returns
        the wall clock and its scaled value."""
        before = self._before()
        seconds, _, code, stdout, _ = invoke(
            [sys.executable, "-m", "repro", "--version"], self.dirs[self.seeds[0]]
        )
        scale = self._scale_since(before)
        if code != 0 or not stdout.startswith("repro "):
            self.errors.append(f"repro --version exited {code}")
        return seconds, seconds * scale

    @staticmethod
    def _done(count: int, minimum: int, deadline: Optional[float], step: int = 1) -> bool:
        """Stop after ``minimum`` rounds, on a multiple of ``step``, and
        not before the deadline, if there is one."""
        if count < minimum or count % step:
            return False
        return deadline is None or time.monotonic() >= deadline

    def timed(self, seconds: Optional[float]) -> Tuple[Dict[str, Any], Dict[str, list]]:
        """The end-to-end metrics: rounds interleaved with probes.

        Every time is scaled to the reference host speed.  A run ends on
        a whole pass over its seeds, so every seed weighs the same in the
        statistics, and under ``--seconds`` it makes at least two passes,
        so ``wall_s.p75`` has samples beyond it.
        """
        smoke = self.smoke
        deadline = None if seconds is None else time.monotonic() + seconds
        minimum = 1 if smoke else (ROUNDS if seconds is None else 2 * len(self.seeds))
        rounds: List[Round] = []
        probes: List[Tuple[float, float]] = []
        first_calibration = len(self.calibrations)
        while not self._done(len(rounds), minimum, deadline, len(self.seeds)):
            seed = self.seeds[len(rounds) % len(self.seeds)]
            rounds.append(self.round(seed))
            if not rounds[-1].error:
                self.untraced.setdefault(seed, []).append(rounds[-1].scaled)
            if len(rounds) % PROBE_EVERY == 0:
                probes.append(self.probe())
        while len(probes) < (1 if smoke else MIN_PROBES):
            probes.append(self.probe())
        timed = [r for r in rounds if not r.error] or rounds
        walls = [r.scaled for r in timed]
        setups = [scaled for _, scaled in probes]
        rss_mb = [r.rss_kb / 1024 for r in timed]
        rates = [r.work / r.scaled for r in timed]
        _, p50, p75 = quartiles(walls)
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s", setups),
            "wall_s.p50": _metric(p50, "s", walls),
            "wall_s.p75": _metric(p75, "s", walls),
            "work_per_s": _metric(sum(r.work for r in timed) / sum(walls), "1/s", rates),
            "peak_rss_mb": _metric(max(rss_mb), "MB", rss_mb),
        }
        samples = {
            "wall_s": walls,
            "setup_s": setups,
            "rss_mb": rss_mb,
            "work": [r.work for r in timed],
            "unscaled_wall_s": [r.wall for r in timed],
            "unscaled_setup_s": [raw for raw, _ in probes],
            "calibration_s": self.calibrations[first_calibration:],
        }
        return metrics, samples

    def traced(self, seconds: Optional[float]) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-layer medians over traced rounds.

        ``trace_overhead`` is the median scaled traced wall over the
        median of the scaled untraced walls of the same seeds: the timed
        phase's, or, without one (``--trace 1``), an untraced round run
        just before each traced round.  The cost of hunt and tail depends
        on the seed, so seeds are never mixed.
        """
        deadline = None if seconds is None else time.monotonic() + seconds
        minimum = 1 if self.smoke else TRACED_ROUNDS
        layers: List[Dict[str, float]] = []
        workers: List[Dict[str, float]] = []
        plain_walls: List[float] = []
        traced_walls: List[float] = []
        count = 0
        while not self._done(count, minimum, deadline):
            seed = self.seeds[count % len(self.seeds)]
            count += 1
            untraced = self.untraced.get(seed)
            if not untraced:
                plain = self.round(seed)
                if plain.error:
                    continue
                untraced = [plain.scaled]
            run = self.round(seed, tracing=True)
            if run.error:
                continue
            plain_walls.append(statistics.median(untraced))
            traced_walls.append(run.scaled)
            layers.append(traced.layer_metrics(run.traces))
            workers.append(
                traced.layer_metrics([t._replace(main=[], wall=0.0) for t in run.traces])
            )
        if not layers:
            return {}, {}
        medians = traced.median_metrics(layers)
        medians["trace_overhead"] = (
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1
        )
        worker_medians = {k: v for k, v in traced.median_metrics(workers).items() if v}
        return medians, worker_medians


# ----------------------------------------------------------------------- main


def environment() -> Dict[str, Any]:
    """What the numbers were measured on."""
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never look for a repository above the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        revision = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_revision": revision,
        "load_1min": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``, checked against the metrics this harness computes."""
    try:
        bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
        declared = {
            key: [(metric["name"], metric["unit"]) for metric in bench[key]]
            for key in ("end_to_end", "per_layer")
        }
        workloads = [w["name"] for w in bench["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise HarnessError(f"cannot read {BENCHMARK}: {error!r}") from None
    layers = traced.known_metrics()
    for key, known in (("end_to_end", E2E_UNITS), ("per_layer", layers)):
        for name, unit in declared[key]:
            if known.get(name) != unit:
                raise HarnessError(
                    f"BENCHMARK.json {key} metric {name} [{unit}] "
                    "is not one this harness computes"
                )
    unknown = [name for name in workloads if name not in WORKLOADS]
    if unknown:
        raise HarnessError(f"BENCHMARK.json names unknown workloads {unknown}")
    return bench


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="run only this workload (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (>= 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measure each phase for this long instead of a fixed round count",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="0: end-to-end metrics only; 1: per-layer metrics only "
        "(default: both, end to end first)",
    )
    parser.add_argument("--out", help="write the full results as JSON here")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one round per workload on tiny inputs (the harness's own test)",
    )
    parser.add_argument(
        "--pin",
        action="store_true",
        help="record this seed-0 run's outcome digests in digests.json",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.pin and (args.seed != 0 or args.smoke):
        parser.error("--pin records the seed-0 digests of the full inputs")
    return args


def _print_workload(name: str, result: Dict[str, Any], bench: Dict[str, Any]) -> None:
    print(
        f"{name}: {result['failed']} of {result['attempted']} rounds failed "
        f"(failed_frac {result['failed_frac']:.3g}), seeds "
        f"{result['seeds'][0]}..{result['seeds'][-1]}, work unit: {result['unit']}"
    )
    for metric, data in result.get("metrics", {}).items():
        print(
            f"  {metric:<14} {data['value']:>12.6g} {data['unit']:<6} "
            f"n={data['samples']:<3} q1={data['q1']:.6g} q3={data['q3']:.6g}"
        )
    samples = result.get("samples")
    if samples:
        print(
            f"  unscaled: wall median {statistics.median(samples['unscaled_wall_s']):.6g} s, "
            f"setup median {statistics.median(samples['unscaled_setup_s']):.6g} s; "
            f"calibration median {statistics.median(samples['calibration_s']):.6g} s "
            f"(reference {REFERENCE_S} s)"
        )
    layers = result.get("layers")
    if layers:
        print("  per layer (median of traced rounds):")
        for metric in bench["per_layer"]:
            print(f"    {metric['name']:<42} {layers[metric['name']]:>12.6g} {metric['unit']}")
    for error in result["errors"][:5]:
        print(f"  error: {error}")


def measure(
    name: str,
    workload: Workload,
    seeds: List[int],
    pins: Dict[str, str],
    work: Path,
    args: argparse.Namespace,
) -> Dict[str, Any]:
    """One workload's metrics, outcome digests and failure accounting."""
    started = time.monotonic()
    bench_run = WorkloadRun(name, workload, seeds, pins, work, args.smoke)
    if not args.smoke:
        # Warm-up: bytecode and page caches fill before timing.
        bench_run.round(seeds[0])
        bench_run.probe()
    result: Dict[str, Any] = {
        "unit": workload.unit,
        "seeds": seeds,
        "commands": workload.commands(seeds[0]),
    }
    if args.trace != 1:
        phase = time.monotonic()
        result["metrics"], result["samples"] = bench_run.timed(args.seconds)
        result["timed_s"] = time.monotonic() - phase
    if args.trace != 0:
        result["layers"], result["worker_layers"] = bench_run.traced(args.seconds)
        if not result["layers"]:
            bench_run.errors.append("no traced round succeeded")
    result.update(
        attempted=bench_run.attempted,
        failed=bench_run.failed,
        failed_frac=bench_run.failed / max(1, bench_run.attempted),
        correct=not bench_run.errors,
        errors=bench_run.errors,
        digests={str(k): v for k, v in sorted(bench_run.expected.items())},
        traced_digests={str(k): v for k, v in sorted(bench_run.traced_digests.items())},
        missing_targets=sorted(bench_run.missing),
        elapsed_s=time.monotonic() - started,
    )
    return result


def run(args: argparse.Namespace) -> int:
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        raise HarnessError(
            f"unset {', '.join(knobs)}: a REPRO_* knob changes the program being measured"
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    bench = load_benchmark()
    env = environment()
    if env["load_1min"] > env["nproc"]:
        print(
            f"warning: 1-minute load {env['load_1min']:.2f} exceeds nproc={env['nproc']}; "
            "timings will be noisy",
            file=sys.stderr,
        )
    names = args.workload or list(WORKLOADS)
    table = SMOKE if args.smoke else WORKLOADS
    variants = 1 if args.smoke else VARIANTS
    seeds = [args.seed * variants + k for k in range(variants)]
    pinned = {}
    if args.seed == 0 and not args.smoke and not args.pin:
        try:
            pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
        except (OSError, ValueError, KeyError) as error:
            raise HarnessError(f"cannot read the pinned digests {DIGESTS}: {error}") from None
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    results: Dict[str, Any] = {}
    try:
        for name in names:
            pins = pinned.get(name, {})
            results[name] = measure(name, table[name], seeds, pins, work, args)
            _print_workload(name, results[name], bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    output = {
        "schema": "repro-profile/1",
        "env": env,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "workloads": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(output, indent=1) + "\n", encoding="utf-8")
    correct = all(result["correct"] for result in results.values())
    if args.pin and correct:
        # Merge, so pinning some workloads keeps the others' pins.
        digests = {}
        if DIGESTS.is_file():
            digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
        digests.update({name: result["digests"] for name, result in results.items()})
        DIGESTS.write_text(json.dumps({"digests": digests}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(_summary(results, bench, args.trace)))
    return 0 if correct else 1


def _summary(
    results: Dict[str, Any], bench: Dict[str, Any], trace: Optional[int]
) -> Dict[str, Any]:
    """The closing JSON line."""
    metrics: Dict[str, Any] = {}
    single = len(results) == 1 and trace is not None
    for name, result in results.items():
        prefix = "" if single else f"{name}."
        if trace != 1:
            for metric in bench["end_to_end"]:
                value = result["metrics"][metric["name"]]["value"]
                metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
        if trace != 0:
            for metric in bench["per_layer"]:
                value = result["layers"].get(metric["name"], 0.0)
                metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    try:
        return run(args)
    except HarnessError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
