"""Parallel trial engine: scenario matrices over algorithm x adversary x n x seed.

Every claim in the paper is a w.h.p. statement over many independent
executions, so every experiment is, at heart, a seed sweep.  This module
makes those sweeps first-class:

* :func:`run_trial` / :func:`run_cell` — run one
  :class:`~repro.sim.specs.TrialSpec`, or a stack of same-cell specs,
  into :class:`TrialResult` rows.  The specs live in the light
  :mod:`repro.sim.specs`, so a stored scenario is read without loading
  this engine;
* :class:`ScenarioMatrix` — expands an algorithm x size x adversary x
  seed grid into trial specs with deterministic per-trial seeds;
* :class:`Executor` — the one place work meets worker processes: an
  order-preserving ``map``, in-process or across one process pool that
  lives as long as the executor (its workers' caches with it), so
  results are independent of the backend.  Library entry points
  (:func:`run_batch`, the splitting estimator, hunts, experiments) take
  the caller's executor, serial when omitted, and never build or close
  one; :func:`as_executor` is the CLI's translation of ``--executor`` /
  ``--workers`` into the one executor a command owns;
* :class:`BatchResult` — the aggregated outcome, grouped into per-cell
  round/failure/message statistics ready for :mod:`repro.analysis.tables`.

Determinism is the design invariant: a matrix expands to the same specs
on every platform, each trial's seed follows one schedule
(``base_seed * 100_003 + trial``, the historical per-experiment loop's),
and executors preserve order — so serial and multiprocessing backends
produce identical :class:`BatchResult` cells, byte for byte.

Execution is *cell-granular* where it pays: consecutive trials of one
cell are stacked into a single
:func:`repro.sim.vectorized.run_stacked_cell` pass where
:func:`repro.sim.kernel.auto_kernel` would stack them (or ``kernel`` pins
``vectorized``), so a sweep dispatches whole cells — chunked across
workers — instead of pickling every :class:`TrialSpec` individually.
The stacked engine is bit-identical to the per-trial kernels, so the
upgrade changes wall-clock only; cells the vectorized engine rejects
(uncertified or non-crash fault families, non-BiL algorithms, missing
NumPy) or that fall below the stream floor keep the per-trial path and
its ``auto`` kernel selection.
"""

from __future__ import annotations

import itertools
import operator
import os
import time
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.analysis.stats import TrialStats, summarize
from repro.analysis.tables import Table
from repro.errors import (
    ConfigurationError,
    RoundLimitExceeded,
    SimulationError,
    SpecViolation,
)
from repro.ids import Name, ProcessId, sparse_ids
from repro.sim.kernel import (
    check_kernel_name,
    check_monitor_mode,
    clears_floor,
    kernel_rejection,
)
from repro.sim.runner import run_renaming, workload
from repro.sim.specs import (
    AdversaryLike,
    AdversarySpec,
    CellKey,
    TrialSpec,
    as_adversary_spec,
)
from repro.sim.trace import Trace, check_trace_mode

# ---------------------------------------------------------------- seed schedule


def legacy_trial_seeds(base_seed: int, trials: int) -> List[int]:
    """The seed schedule of every sweep: the historical per-experiment
    loop's, so matrix tables stay byte-identical with it."""
    return [base_seed * 100_003 + trial for trial in range(trials)]


# -------------------------------------------------------------------- the trial


@dataclass(frozen=True)
class TrialResult:
    """Scalar outcome of one trial — small enough to ship between processes."""

    # repro: lint-ok[K203] composite, flattened into the row as its own field columns
    spec: TrialSpec
    rounds: int
    failures: int
    messages_sent: int
    messages_delivered: int
    last_round_named: Optional[int]
    # repro: lint-ok[K203] unbounded (n entries per trial); rows stay scalar by contract
    names: Tuple[Tuple[ProcessId, Name], ...]
    #: Which kernel actually executed the trial (resolved from the spec's
    #: "auto" where applicable).
    kernel: str = "reference"
    #: ``"ErrorType: message"`` when the spec ran with
    #: ``capture_errors=True`` and the execution failed (deadlock, spec
    #: violation); None for a clean run.
    error: Optional[str] = None
    #: The monitor mode the trial ran under.
    monitor: str = "off"
    #: Rendered invariant-monitor findings ("round R [invariant] ...");
    #: always empty when monitoring was off or every invariant held.
    violations: Tuple[str, ...] = ()
    #: Sender->receiver links dropped by omission (zero on crash-only
    #: runs).
    omissions: int = 0
    #: The adversary's declared :class:`~repro.adversary.base.FaultBudget`
    #: rendered compactly ("omissions=48"; "" = default).
    fault_budget: str = ""
    #: The recorded event trace when the spec asked for one (None under
    #: ``trace="off"``; captured-error rows keep the events recorded up
    #: to the failure).  Rows serialize the
    #: spec's trace *mode*; the events themselves persist through the
    #: trace-file writers, content-addressed by ``spec.digest()``.  The
    #: row carries the spec's trace *mode*, not the events.
    trace: Optional[Trace] = None

    @property
    def cell(self) -> CellKey:
        """The matrix cell this result belongs to."""
        return self.spec.cell

    def to_row(self) -> Dict[str, Any]:
        """This trial as a flat JSON-ready dict (one ``--out .jsonl`` line).

        Every :class:`TrialSpec`/:class:`TrialResult` field appears here
        (the K203 lint rule enforces it), so a row alone replays its
        trial: the spec columns are the inputs, the rest the outcome.
        """
        return {
            "algorithm": self.spec.algorithm,
            "n": self.spec.n,
            "adversary": self.spec.adversary.key,
            "seed": self.spec.seed,
            "halt_on_name": self.spec.halt_on_name,
            "crash_budget": self.spec.crash_budget,
            "check": self.spec.check,
            "capture_errors": self.spec.capture_errors,
            "kernel": self.kernel,
            "rounds": self.rounds,
            "failures": self.failures,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "last_round_named": self.last_round_named,
            "error": self.error,
            "monitor": self.monitor,
            "violations": list(self.violations),
            "omissions": self.omissions,
            "fault_budget": self.fault_budget,
            "trace": self.spec.trace,
        }


def _failed_trial(
    spec: TrialSpec,
    error: Exception,
    trace: Optional[Trace],
    kernel: str,
    fault_budget: str = "",
) -> TrialResult:
    """The row of a trial that failed under ``capture_errors``.

    ``rounds`` is the round budget the run exhausted: a round-limit
    error's own limit, else the workload's
    :attr:`~repro.sim.runner.Workload.round_limit` — the worst legal
    round count, so rounds-style objectives rank the failure above any
    terminating run.  ``trace`` holds the events recorded up to the
    failure, and ``kernel`` names the engine that ran it, as a clean
    row's does.
    """
    if isinstance(error, RoundLimitExceeded):
        rounds = error.limit
    else:
        budget = spec.n - 1 if spec.crash_budget is None else spec.crash_budget
        rounds = workload(spec.algorithm).round_limit(spec.n, budget)
    return TrialResult(
        spec=spec,
        rounds=rounds,
        failures=0,
        messages_sent=0,
        messages_delivered=0,
        last_round_named=None,
        names=(),
        kernel=kernel,
        error=f"{type(error).__name__}: {error}",
        monitor=spec.monitor,
        violations=tuple(v.render() for v in getattr(error, "violations", ())),
        fault_budget=fault_budget,
        trace=trace,
    )


def run_trial(spec: TrialSpec) -> TrialResult:
    """Execute one spec end to end (module-level so executors can pickle it)."""
    adversary = spec.adversary.build(spec.seed)
    fault_budget = "" if adversary is None else adversary.fault_budget().describe()
    try:
        run = run_renaming(
            spec.algorithm,
            sparse_ids(spec.n),
            seed=spec.seed,
            adversary=adversary,
            crash_budget=spec.crash_budget,
            halt_on_name=spec.halt_on_name,
            check=spec.check,
            kernel=spec.kernel,
            monitor=spec.monitor,
            trace=spec.trace,
        )
    except (SimulationError, SpecViolation) as error:
        if not spec.capture_errors:
            raise
        # The runner hangs the engine that ran and the events recorded up
        # to the failure on the error: a deadlock's trace is the
        # interesting one.
        return _failed_trial(
            spec,
            error,
            getattr(error, "partial_trace", None),
            getattr(error, "kernel", spec.kernel),
            fault_budget,
        )
    return TrialResult(
        spec=spec,
        rounds=run.rounds,
        failures=run.failures,
        messages_sent=run.metrics.total_messages_sent,
        messages_delivered=run.metrics.total_messages_delivered,
        last_round_named=run.last_round_named,
        names=tuple(sorted(run.names.items(), key=lambda item: repr(item[0]))),
        kernel=run.kernel,
        monitor=run.monitor,
        violations=tuple(v.render() for v in run.violations),
        omissions=run.metrics.total_omissions,
        fault_budget=fault_budget,
        trace=run.trace,
    )


# --------------------------------------------------------- stacked cell tasks

#: One executor work item: a lone spec (per-trial path) or a tuple of
#: same-cell specs executed as one vectorized stack.
Task = Union[TrialSpec, Tuple[TrialSpec, ...]]

#: Stream budget (trials x n) of one stacked call; bounds the resident
#: MT state while leaving whole cells intact at sweep sizes.  A stream
#: keeps the (2P + 1) x 4 bytes its seeded prefix of P words reads
#: (772 B at n=256, 964 B at n=1024, 1.5 KB at n=65536; all 2.5 KB only
#: once a draw runs past the prefix) plus 8 bytes per double drawn.
MAX_STREAMS = 1 << 17


def _fields_but(*skipped: str) -> Callable[[TrialSpec], Tuple[Any, ...]]:
    """A getter of every :class:`TrialSpec` field but ``skipped``, read
    off the dataclass, so a field added to the spec is part of the key."""
    return operator.attrgetter(
        *(f.name for f in fields(TrialSpec) if f.name not in skipped)
    )


#: Everything but the seed: trials agreeing here can stack.
_cell_config = _fields_but("seed")

#: The cell configuration up to the adversary.  Hunt generations
#: evaluate many one-of-a-kind crash schedules against one cell shape;
#: grouping on this key (``mixed`` task planning) lets those stack with
#: per-trial adversaries where :data:`_cell_config` grouping would leave
#: every candidate on the per-trial path.
_mixed_cell_config = _fields_but("seed", "adversary")


def _stackable(spec: TrialSpec) -> bool:
    """Can trials shaped like ``spec`` run as one vectorized cell?

    Asks the one kernel decision about the spec's own adversary, so the
    batch upgrade and an explicitly pinned ``kernel="vectorized"``
    accept exactly the same cells.
    """
    reason = kernel_rejection(
        "vectorized",
        algorithm=spec.algorithm,
        policy=workload(spec.algorithm).policy,
        adversary=spec.adversary.build(spec.seed),
        trace=spec.trace,
        monitor=spec.monitor,
    )
    return reason is None


def plan_tasks(
    specs: Sequence[TrialSpec], *, parts: int = 1, mixed: bool = False
) -> List[Task]:
    """Fold runs of same-cell specs into stacked tasks, order-preserving.

    ``parts`` splits large stacks (one per worker, roughly) so a single
    big cell still spreads across a pool; every stack additionally
    respects the :data:`MAX_STREAMS` memory budget.  Specs the
    vectorized engine cannot stack stay individual trials.

    ``mixed`` groups on :data:`_mixed_cell_config` instead — trials of
    one cell shape stack even when each carries its own adversary spec
    (the hunt batching hint), provided every adversary in the run shares
    a name.  A name does not settle certification (``schedule`` covers
    crash-only and omit genotypes), so each adversary spec is probed on
    its own, and only runs of consecutive stackable specs stack.

    ``auto`` groups stack where :func:`~repro.sim.kernel.auto_kernel`
    would: from the :data:`~repro.sim.kernel.MIN_STREAMS` floor up, so
    small cells keep the per-trial columnar path (a pure scheduling
    choice — the engines are bit-identical).  A pinned
    ``kernel="vectorized"`` group always stacks.
    """
    tasks: List[Task] = []
    specs = list(specs)
    config_of = _mixed_cell_config if mixed else _cell_config
    i = 0
    while i < len(specs):
        spec = specs[i]
        j = i + 1
        config = config_of(spec)
        while j < len(specs) and config_of(specs[j]) == config:
            if mixed and specs[j].adversary.name != spec.adversary.name:
                break
            j += 1
        group = specs[i:j]
        i = j
        # The floor is checked before the stacking probe, which builds an
        # adversary and loads NumPy and the vectorized kernel.
        if not _clears_floor(group):
            tasks.extend(group)
            continue
        # One probe per run of equal adversary specs; adjacent runs with
        # the same verdict merge, so a group stacks in as few pieces as
        # its mix of certifiable adversaries allows.
        pieces: List[Tuple[bool, List[TrialSpec]]] = []
        by_adversary = itertools.groupby(
            group, key=operator.attrgetter("adversary")
        )
        for _, same in by_adversary:
            same_specs = list(same)
            stacks = _stackable(same_specs[0])
            if pieces and pieces[-1][0] == stacks:
                pieces[-1][1].extend(same_specs)
            else:
                pieces.append((stacks, same_specs))
        for stacks, run in pieces:
            if not (stacks and _clears_floor(run)):
                tasks.extend(run)
                continue
            chunk = max(1, MAX_STREAMS // max(1, spec.n))
            if parts > 1:
                chunk = max(1, min(chunk, -(-len(run) // parts)))
            # Split pieces stay stacked even when a remainder has one
            # trial: chunking must never change the executing kernel.
            for k in range(0, len(run), chunk):
                tasks.append(tuple(run[k : k + chunk]))
    return tasks


def _clears_floor(group: Sequence[TrialSpec]) -> bool:
    """May a same-config ``group`` stack?  ``auto`` asks the one floor
    rule; a pinned ``vectorized`` group asked to stack, so it takes no
    stream floor; a pinned scalar kernel never stacks."""
    spec = group[0]
    if spec.kernel == "vectorized":
        return len(group) >= 2
    return spec.kernel == "auto" and clears_floor(len(group), spec.n)


def run_cell(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Execute one stacked cell (module-level: picklable).

    All specs must share a cell configuration up to the adversary
    (:func:`plan_tasks` guarantees it; direct callers are checked); the
    stacked engine is bit-identical to the scalar kernels, so each
    returned :class:`TrialResult` equals the :func:`run_trial` outcome
    of its spec except for the ``kernel`` label.  Each trial's adversary
    is built from that trial's seed — exactly the instance
    :func:`run_trial` would hand its kernel.

    The stack ends a failing trial early instead of raising, so the
    per-trial semantics of the serial loop are reproduced here:
    ascending trial order, a trial's :class:`RoundLimitExceeded` or
    stall :class:`~repro.errors.MonitorViolation` before its spec check,
    and — under ``capture_errors`` — the exact error rows
    :func:`run_trial` would have produced, without re-running anything.
    """
    from repro.sim.vectorized import run_stacked_cell

    spec = specs[0]
    for other in specs[1:]:
        if _mixed_cell_config(other) != _mixed_cell_config(spec):
            raise ConfigurationError(
                "run_cell needs same-cell specs (only seeds and certified "
                f"adversaries may differ); got {_cell_config(spec)} and "
                f"{_cell_config(other)}"
            )
    cell = run_stacked_cell(
        sparse_ids(spec.n),
        [s.seed for s in specs],
        policy=workload(spec.algorithm).policy,
        halt_on_name=spec.halt_on_name,
        crash_budget=spec.crash_budget,
        monitor=spec.monitor,
        adversaries=[s.adversary.build(s.seed) for s in specs],
    )
    labels = cell.labels
    # repr-sort of the (shared) labels once per cell, not once per trial;
    # itemgetter picks a fully named trial's decisions at C speed.
    order = sorted(range(len(labels)), key=lambda i: repr(labels[i]))
    ordered_labels = tuple(labels[i] for i in order)
    pick = operator.itemgetter(*order) if len(order) > 1 else None
    rounds = cell.rounds.tolist()
    failures = cell.failures.tolist()
    sent = cell.messages_sent.tolist()
    delivered = cell.messages_delivered.tolist()
    decisions = cell.decisions.tolist()
    crashed = cell.crashed.tolist()
    last_named = cell.last_round_named
    spec_ok = cell.spec_ok() if spec.check else None
    results = []
    for t, trial_spec in enumerate(specs):
        # A failed trial keeps its partial trace, as run_trial's rows do.
        trace = cell.trace(t) if trial_spec.trace == "cheap" else None
        error = cell.error(t)
        if error is None and spec_ok is not None and not bool(spec_ok[t]):
            try:
                cell.check_trial(t)
            except SpecViolation as violation:
                error = violation
        if error is not None:
            if not trial_spec.capture_errors:
                raise error
            results.append(_failed_trial(trial_spec, error, trace, "vectorized"))
            continue
        row = decisions[t]
        if failures[t] == 0 and min(row) >= 0:
            picked = pick(row) if pick is not None else (row[order[0]],)
            names = tuple(zip(ordered_labels, picked))
        else:
            crashed_row = crashed[t]
            names = tuple(
                (labels[i], row[i])
                for i in order
                if not crashed_row[i] and row[i] >= 0
            )
        results.append(
            TrialResult(
                spec=trial_spec,
                rounds=rounds[t],
                failures=failures[t],
                messages_sent=sent[t],
                messages_delivered=delivered[t],
                last_round_named=last_named[t],
                names=names,
                kernel="vectorized",
                monitor=trial_spec.monitor,
                violations=tuple(v.render() for v in cell.violations(t)),
                trace=trace,
            )
        )
    return results


def _run_task(task: Task) -> List[TrialResult]:
    """One executor work item (module-level so pools can pickle it)."""
    if isinstance(task, TrialSpec):
        return [run_trial(task)]
    return run_cell(task)


# -------------------------------------------------------------------- executors

#: Executor names accepted by :func:`as_executor` and the CLI.
EXECUTORS = ("serial", "process")

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class Executor:
    """Where work items run: in-process, or across one process pool.

    ``Pool.map`` preserves input order, so results come back in exactly
    the order the in-process loop produces — determinism under
    parallelism.  Items ship in ~4 chunks per worker, so a worker runs a
    stretch of same-``n`` tasks back to back.

    The executor owns at most one pool for its whole lifetime: the first
    parallel :meth:`map` starts it, every later ``map`` reuses it, and
    :meth:`close` (or leaving a ``with`` block) ends it.  Workers are
    forked at that first parallel ``map``, so they see the parent's
    modules as they were then, and their process-local caches — the
    :func:`~repro.tree.topology.cached_topology` shapes and the MT seeding
    state — persist from one ``map`` to the next.  Equality is on
    ``(name, workers)`` alone; whoever builds an executor closes it.
    """

    name: str = "serial"
    workers: int = 1
    _pool: Any = field(default=None, init=False, repr=False, compare=False)

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """``[fn(item) for item in items]``, spread over the pool.

        One worker, or fewer than two items, runs in-process: there is
        nothing to spread, and pool start-up would dominate.  Otherwise
        the first call starts the pool and later calls reuse it, so the
        workers' topology and MT seeding caches carry over between calls.
        """
        items = list(items)
        if self.workers == 1 or len(items) < 2:
            return [fn(item) for item in items]
        if self._pool is None:
            # Imported here so serial commands never load it.
            import multiprocessing

            # The pool is run-time state, not identity: set past the freeze.
            object.__setattr__(self, "_pool", multiprocessing.Pool(self.workers))
        return self._pool.map(fn, items, max(1, len(items) // (4 * self.workers)))

    def close(self) -> None:
        """End the pool, if one was started (safe to call twice)."""
        pool = self._pool
        if pool is not None:
            object.__setattr__(self, "_pool", None)
            pool.terminate()
            pool.join()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def as_executor(name: Optional[str], *, workers: Optional[int] = None) -> Executor:
    """The executor a command's ``--executor`` / ``--workers`` ask for.

    No name means serial, or process when ``workers > 1``; "process"
    without ``workers`` uses one worker per CPU.  The caller owns the
    result and closes it (a ``with`` block).
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if name is None:
        name = "process" if workers is not None and workers > 1 else "serial"
    if name == "serial":
        return Executor()
    if name == "process":
        return Executor("process", workers or os.cpu_count() or 1)
    raise ConfigurationError(f"unknown executor {name!r}; choose from {EXECUTORS}")


# -------------------------------------------------------------- scenario matrix


@dataclass(frozen=True)
class ScenarioMatrix:
    """An algorithm x size x adversary x seed grid of trials."""

    algorithms: Tuple[str, ...]
    sizes: Tuple[int, ...]
    adversaries: Tuple[AdversarySpec, ...] = (AdversarySpec(),)
    trials: int = 1
    base_seed: int = 0
    halt_on_name: bool = False
    crash_budget: Optional[int] = None
    check: bool = True
    capture_errors: bool = False
    kernel: str = "auto"
    monitor: str = "off"
    trace: str = "off"

    @classmethod
    def build(
        cls,
        algorithms: Iterable[str],
        sizes: Iterable[int],
        adversaries: Iterable[AdversaryLike] = ("none",),
        *,
        trials: int = 1,
        base_seed: int = 0,
        halt_on_name: bool = False,
        crash_budget: Optional[int] = None,
        check: bool = True,
        capture_errors: bool = False,
        kernel: str = "auto",
        monitor: str = "off",
        trace: str = "off",
    ) -> "ScenarioMatrix":
        """Validate and normalize a grid definition."""
        algorithms = tuple(algorithms)
        sizes = tuple(int(n) for n in sizes)
        adversary_specs = tuple(as_adversary_spec(adv) for adv in adversaries)
        for algorithm in algorithms:
            workload(algorithm)
        if not algorithms or not sizes or not adversary_specs:
            raise ConfigurationError("a scenario matrix needs >= 1 of every dimension")
        for n in sizes:
            if n < 1:
                raise ConfigurationError(f"sizes must be >= 1, got {n}")
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        check_kernel_name(kernel)
        check_monitor_mode(monitor)
        check_trace_mode(trace)
        return cls(
            algorithms=algorithms,
            sizes=sizes,
            adversaries=adversary_specs,
            trials=trials,
            base_seed=base_seed,
            halt_on_name=halt_on_name,
            crash_budget=crash_budget,
            check=check,
            capture_errors=capture_errors,
            kernel=kernel,
            monitor=monitor,
            trace=trace,
        )

    def __len__(self) -> int:
        return len(self.algorithms) * len(self.sizes) * len(self.adversaries) * self.trials

    def expand(self) -> List[TrialSpec]:
        """All trial specs, cells in grid order, seeds ascending per cell
        (every cell shares :func:`legacy_trial_seeds`)."""
        seeds = legacy_trial_seeds(self.base_seed, self.trials)
        specs: List[TrialSpec] = []
        for algorithm in self.algorithms:
            for n in self.sizes:
                for adversary in self.adversaries:
                    for seed in seeds:
                        specs.append(
                            TrialSpec(
                                algorithm=algorithm,
                                n=n,
                                seed=seed,
                                adversary=adversary,
                                halt_on_name=self.halt_on_name,
                                crash_budget=self.crash_budget,
                                check=self.check,
                                capture_errors=self.capture_errors,
                                kernel=self.kernel,
                                monitor=self.monitor,
                                trace=self.trace,
                            )
                        )
        return specs


# ----------------------------------------------------------------- batch result


@dataclass(frozen=True)
class CellStats:
    """Aggregated statistics of one matrix cell."""

    key: CellKey
    count: int
    rounds: TrialStats
    failures: TrialStats
    messages_sent: TrialStats
    messages_delivered: TrialStats


@dataclass
class BatchResult:
    """All trial results of one batch, with per-cell aggregation."""

    trials: List[TrialResult] = field(default_factory=list)
    executor: str = "serial"
    elapsed: float = 0.0

    def __len__(self) -> int:
        return len(self.trials)

    def cells(self) -> Dict[CellKey, List[TrialResult]]:
        """Results grouped by cell, preserving trial order within each."""
        grouped: Dict[CellKey, List[TrialResult]] = {}
        for result in self.trials:
            grouped.setdefault(result.cell, []).append(result)
        return grouped

    def cell(
        self, algorithm: str, n: int, adversary: AdversaryLike = "none"
    ) -> List[TrialResult]:
        """Results of one cell (raises on an empty/unknown cell)."""
        key = CellKey(algorithm, int(n), as_adversary_spec(adversary).key)
        results = [result for result in self.trials if result.cell == key]
        if not results:
            raise ConfigurationError(f"no trials in cell {key}")
        return results

    def stats(self, algorithm: str, n: int, adversary: AdversaryLike = "none") -> CellStats:
        """Aggregated statistics of one cell."""
        return self._stats(self.cell(algorithm, n, adversary))

    def cell_stats(self) -> List[CellStats]:
        """Statistics of every cell, in first-seen (grid) order."""
        return [self._stats(results) for results in self.cells().values()]

    def to_table(self, title: str = "scenario matrix") -> Table:
        """One row per cell, ready for experiment reports."""
        table = Table(
            title,
            [
                "algorithm",
                "n",
                "adversary",
                "trials",
                "mean rounds",
                "p95",
                "max",
                "mean f",
                "mean deliveries",
            ],
            notes=(
                f"executor={self.executor}; "
                + (
                    "every trial checked against the renaming spec"
                    if all(trial.spec.check for trial in self.trials)
                    else "spec checking disabled for some cells "
                    "(fault-measurement mode)"
                )
            ),
        )
        for stats in self.cell_stats():
            table.add_row(
                stats.key.algorithm,
                stats.key.n,
                stats.key.adversary,
                stats.count,
                stats.rounds.mean,
                stats.rounds.p95,
                stats.rounds.maximum,
                stats.failures.mean,
                stats.messages_delivered.mean,
            )
        return table

    @staticmethod
    def _stats(results: Sequence[TrialResult]) -> CellStats:
        return CellStats(
            key=results[0].cell,
            count=len(results),
            rounds=summarize([r.rounds for r in results]),
            failures=summarize([r.failures for r in results]),
            messages_sent=summarize([r.messages_sent for r in results]),
            messages_delivered=summarize([r.messages_delivered for r in results]),
        )


def run_batch(
    source: Union[ScenarioMatrix, Sequence[TrialSpec]],
    *,
    executor: Optional[Executor] = None,
    mixed_cells: bool = False,
) -> BatchResult:
    """Expand (if needed) and execute a batch of trials.

    Every task maps through ``executor`` (serial when omitted), which
    the caller owns: its pool, if one starts, outlives this call.
    Eligible cells — failure-free and certified-crash alike, from the
    stream floor up — run trial-stacked on the vectorized engine (one
    call per cell, split across workers); results are bit-identical
    either way, so backends and kernels interchange freely.
    ``mixed_cells`` extends stacking to groups whose trials carry
    per-trial adversary specs (hunt generations).
    """
    specs = source.expand() if isinstance(source, ScenarioMatrix) else list(source)
    backend = Executor() if executor is None else executor
    # repro: lint-ok[D102] wall-clock telemetry (BatchResult.elapsed), never a result row
    started = time.perf_counter()
    tasks = plan_tasks(specs, parts=backend.workers, mixed=mixed_cells)
    results = [result for chunk in backend.map(_run_task, tasks) for result in chunk]
    # repro: lint-ok[D102] wall-clock telemetry (BatchResult.elapsed), never a result row
    elapsed = time.perf_counter() - started
    return BatchResult(trials=results, executor=backend.name, elapsed=elapsed)
