"""Parallel trial engine: scenario matrices over algorithm x adversary x n x seed.

Every claim in the paper is a w.h.p. statement over many independent
executions, so every experiment is, at heart, a seed sweep.  This module
makes those sweeps first-class:

* :class:`TrialSpec` — one fully-described execution (algorithm, size,
  seed, adversary), picklable so it can cross process boundaries;
* :class:`ScenarioMatrix` — expands an algorithm x size x adversary x
  seed grid into trial specs with deterministic per-trial seeds;
* :class:`Executor` — the one place work meets worker processes: an
  order-preserving ``map``, in-process or across a fresh process pool,
  so results are independent of the backend (the splitting estimator
  in :mod:`repro.monitor.splitting` maps its chunks through it too);
* :class:`BatchResult` — the aggregated outcome, grouped into per-cell
  round/failure/message statistics ready for :mod:`repro.analysis.tables`.

Determinism is the design invariant: a matrix expands to the same specs
on every platform, each trial's randomness is derived only from its spec
(via :func:`repro.sim.rng.derive_seed` in ``"derived"`` seed mode, or the
historical ``base_seed * 100_003 + trial`` schedule in ``"legacy"`` mode),
and executors preserve order — so serial and multiprocessing backends
produce identical :class:`BatchResult` cells, byte for byte.

Execution is *cell-granular* where it pays: consecutive trials of one
cell are stacked into a single
:func:`repro.sim.vectorized.run_stacked_cell` pass (NumPy installed,
``kernel`` in ``{"auto", "vectorized"}``; ``auto`` cells only from a
stream floor up), so a sweep dispatches whole cells — chunked across
workers — instead of pickling every :class:`TrialSpec` individually.
The stacked engine is bit-identical to the per-trial kernels, so the
upgrade changes wall-clock only; cells the vectorized engine rejects
(uncertified or non-crash fault families, non-BiL algorithms, missing
NumPy) keep the per-trial path and its ``auto`` kernel selection.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import multiprocessing
import operator
import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.adversary.base import Adversary
from repro.adversary.omission import (
    IIDOmissionAdversary,
    TargetedOmissionAdversary,
)
from repro.adversary.random_crash import RandomCrashAdversary
from repro.adversary.sandwich import SandwichAdversary
from repro.adversary.splitter import HalfSplitAdversary
from repro.adversary.targeted import TargetedPriorityAdversary
from repro.analysis.stats import TrialStats, summarize
from repro.analysis.tables import Table
from repro.errors import (
    ConfigurationError,
    RoundLimitExceeded,
    SimulationError,
    SpecViolation,
)
from repro.ids import Name, ProcessId, sparse_ids
from repro.sim.kernel import KernelRequest, check_kernel_name, check_monitor_mode
from repro.sim.rng import derive_seed
from repro.sim.runner import ALGORITHMS, default_round_limit, run_renaming
from repro.sim.trace import Trace, check_trace_mode

# --------------------------------------------------------------- seed schedules

#: Seed-derivation modes for a matrix: "legacy" reproduces the historical
#: per-experiment schedule (byte-identical tables with the old serial
#: loops); "derived" hashes the whole cell coordinate through SHA-256 so
#: every cell gets an independent stream.
SEED_MODES = ("legacy", "derived")


def legacy_trial_seeds(base_seed: int, trials: int) -> List[int]:
    """The historical seed schedule shared by every experiment sweep."""
    return [base_seed * 100_003 + trial for trial in range(trials)]


def derived_trial_seed(
    base_seed: int, algorithm: str, n: int, adversary_key: str, trial: int
) -> int:
    """An independent per-cell, per-trial seed (SHA-256 derivation)."""
    return derive_seed(base_seed, "trial", algorithm, n, adversary_key, trial)


# ----------------------------------------------------------- adversary registry

#: Adversary builders by name: ``builder(seed, **params) -> Optional[Adversary]``.
#: Builders are module-level so specs naming them stay picklable.
AdversaryBuilder = Callable[..., Optional[Adversary]]


def _build_none(seed: int) -> Optional[Adversary]:
    return None


def _build_random(
    seed: int,
    rate: float = 0.05,
    delivery: str = "split",
    max_crashes: Optional[int] = None,
) -> Adversary:
    return RandomCrashAdversary(rate, delivery=delivery, max_crashes=max_crashes, seed=seed)


def _build_targeted(
    seed: int, max_crashes: Optional[int] = None, every_k_phases: int = 1
) -> Adversary:
    return TargetedPriorityAdversary(
        max_crashes=max_crashes, every_k_phases=every_k_phases, seed=seed
    )


def _build_sandwich(
    seed: int, max_crashes: Optional[int] = None, every_k_rounds: int = 2
) -> Adversary:
    return SandwichAdversary(max_crashes=max_crashes, every_k_rounds=every_k_rounds, seed=seed)


def _build_half_split(
    seed: int,
    victims_per_round: int = 1,
    max_crashes: Optional[int] = None,
    last_round: Optional[int] = None,
) -> Adversary:
    """Round-1 strike by default; ``last_round`` strikes every odd round up to it."""
    rounds = None
    if last_round is not None:
        rounds = frozenset({1} | set(range(3, last_round, 2)))
    return HalfSplitAdversary(
        rounds=rounds,
        victims_per_round=victims_per_round,
        max_crashes=max_crashes,
        seed=seed,
    )


def _build_schedule(seed: int, n: int = 0, events: Tuple = ()) -> Adversary:
    """A searched fault schedule (:mod:`repro.search.schedule`), bound to
    the trial's ``sparse_ids(n)`` population — the builder lives here so
    worker processes resolve it when unpickling a spec."""
    from repro.search.schedule import Schedule

    return Schedule.from_params(n=n, events=events).compile(sparse_ids(n))


def _build_omission(
    seed: int,
    p: float = 0.1,
    max_omissions: Optional[int] = None,
    first: Optional[int] = None,
    last: Optional[int] = None,
) -> Adversary:
    """I.i.d. per-link message loss (``omission:p=0.1,first=2,last=12``)."""
    rounds = None
    if first is not None or last is not None:
        rounds = (1 if first is None else first, 10**9 if last is None else last)
    return IIDOmissionAdversary(
        p, max_omissions=max_omissions, rounds=rounds, seed=seed
    )


def _build_omission_targeted(
    seed: int, count: int = 1, first: Optional[int] = None, last: Optional[int] = None
) -> Adversary:
    """Sustained silencing of the lowest-labelled senders
    (``omission-targeted:count=2,first=2,last=9``)."""
    rounds = None
    if first is not None or last is not None:
        rounds = (1 if first is None else first, 10**9 if last is None else last)
    return TargetedOmissionAdversary(count=count, rounds=rounds, seed=seed)


ADVERSARY_BUILDERS: Dict[str, AdversaryBuilder] = {
    "none": _build_none,
    "random": _build_random,
    "targeted": _build_targeted,
    "sandwich": _build_sandwich,
    "half-split": _build_half_split,
    "schedule": _build_schedule,
    "omission": _build_omission,
    "omission-targeted": _build_omission_targeted,
}


@dataclass(frozen=True)
class AdversarySpec:
    """A named, parameterized adversary — hashable and picklable.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so specs can be
    dict keys and cross process boundaries; :meth:`build` instantiates a
    fresh adversary for one trial, seeded with that trial's seed.
    """

    name: str = "none"
    params: Tuple[Tuple[str, Any], ...] = ()
    label: Optional[str] = None

    @classmethod
    def of(cls, name: str, *, label: Optional[str] = None, **params: Any) -> "AdversarySpec":
        """Build a spec, validating the adversary name."""
        if name not in ADVERSARY_BUILDERS:
            raise ConfigurationError(
                f"unknown adversary {name!r}; choose from {sorted(ADVERSARY_BUILDERS)}"
            )
        return cls(name=name, params=tuple(sorted(params.items())), label=label)

    @classmethod
    def parse(cls, text: str) -> "AdversarySpec":
        """Parse the CLI grammar ``name[:key=value[,key=value...]]``.

        Values go through :func:`ast.literal_eval` when possible (so
        ``rate=0.2`` is a float) and stay strings otherwise.
        """
        name, _, raw_params = text.partition(":")
        params: Dict[str, Any] = {}
        if raw_params:
            for item in raw_params.split(","):
                key, sep, raw_value = item.partition("=")
                if not sep or not key:
                    raise ConfigurationError(
                        f"bad adversary parameter {item!r} in {text!r}; "
                        "expected name:key=value[,key=value...]"
                    )
                try:
                    value = ast.literal_eval(raw_value)
                except (SyntaxError, ValueError):
                    value = raw_value
                params[key.strip()] = value
        return cls.of(name.strip(), **params)

    @property
    def key(self) -> str:
        """The display / cell-grouping label."""
        if self.label is not None:
            return self.label
        if not self.params:
            return self.name
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}:{rendered}"

    def build(self, seed: int) -> Optional[Adversary]:
        """A fresh adversary instance for one trial."""
        builder = ADVERSARY_BUILDERS.get(self.name)
        if builder is None:
            raise ConfigurationError(
                f"unknown adversary {self.name!r}; choose from {sorted(ADVERSARY_BUILDERS)}"
            )
        try:
            return builder(seed, **dict(self.params))
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"bad parameters for adversary {self.name!r}: {error} "
                f"(accepted: {_builder_params(builder)})"
            ) from None


def _builder_params(builder: AdversaryBuilder) -> str:
    """The builder's accepted parameter names, for error messages."""
    import inspect

    names = [
        name
        for name in inspect.signature(builder).parameters
        if name != "seed"
    ]
    return ", ".join(names) if names else "none"


#: Anything coercible to an AdversarySpec in matrix/CLI construction.
AdversaryLike = Union[str, AdversarySpec]


def as_adversary_spec(value: AdversaryLike) -> AdversarySpec:
    """Coerce a string (CLI grammar) or spec to an :class:`AdversarySpec`."""
    if isinstance(value, AdversarySpec):
        return value
    return AdversarySpec.parse(value)


# -------------------------------------------------------------------- the trial


class CellKey(NamedTuple):
    """Coordinates of one matrix cell (seed dimension aggregated away)."""

    algorithm: str
    n: int
    adversary: str


@dataclass(frozen=True)
class TrialSpec:
    """One fully-described execution; picklable, hashable, deterministic."""

    algorithm: str
    n: int
    seed: int
    adversary: AdversarySpec = AdversarySpec()
    halt_on_name: bool = False
    crash_budget: Optional[int] = None
    check: bool = True
    #: Kernel selection: "auto" (stacked vectorized cells for eligible
    #: cells at the stream floor, columnar when it models the run,
    #: reference otherwise), or a pinned "reference" / "columnar" /
    #: "vectorized" (pinned fast paths raise KernelUnsupported on
    #: rejected cells).
    kernel: str = "auto"
    #: Counterexample-mining mode: capture simulation/spec failures as
    #: data (:attr:`TrialResult.error`) instead of letting one poisoned
    #: trial abort a whole batch.  A deadlocked run (the round limit) is
    #: exactly what an adversary search hopes to find.
    capture_errors: bool = False
    #: Runtime invariant monitoring ("off"/"cheap"/"full"); findings land
    #: in :attr:`TrialResult.violations` and the jsonl rows.
    monitor: str = "off"
    #: Event capture ("off"/"cheap"/"full"); a cheap trace rides the fast
    #: kernels, a full one pins the reference engine.  The recorded trace
    #: lands in :attr:`TrialResult.trace`.
    trace: str = "off"

    @property
    def cell(self) -> CellKey:
        """The matrix cell this trial belongs to."""
        return CellKey(self.algorithm, self.n, self.adversary.key)

    def digest(self) -> str:
        """Short content address of the *execution* this spec describes.

        Covers exactly the fields that determine the run's outcome
        (algorithm, n, seed, adversary, halt_on_name, crash_budget,
        kernel-visible knobs) — observation modes (``trace``,
        ``monitor``) and error handling (``check``, ``capture_errors``)
        are excluded, since the byte-identity guarantees pin that they
        never change results.  Trace and scenario files are
        content-addressed by this digest.
        """
        canonical = repr(
            (
                self.algorithm,
                self.n,
                self.seed,
                self.adversary.key,
                self.halt_on_name,
                self.crash_budget,
            )
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


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
        # The round budget a deadlocked run exhausted: the worst legal
        # round count, so rounds-style objectives rank it above any
        # terminating execution.
        limit = (
            error.limit
            if isinstance(error, RoundLimitExceeded)
            else default_round_limit(spec.n, spec.crash_budget)
        )
        return TrialResult(
            spec=spec,
            rounds=limit,
            failures=0,
            messages_sent=0,
            messages_delivered=0,
            last_round_named=None,
            names=(),
            kernel=spec.kernel,
            error=f"{type(error).__name__}: {error}",
            monitor=spec.monitor,
            violations=tuple(
                v.render() for v in getattr(error, "violations", ())
            ),
            fault_budget=fault_budget,
            # The events recorded up to the failure (runner hangs the
            # sink on the error): a deadlock's trace is the interesting
            # one, so captured-error rows keep it.
            trace=getattr(error, "partial_trace", None),
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
#: MT state (~2.5 KB per stream) while leaving whole cells intact at
#: sweep sizes.
MAX_STREAMS = 1 << 17

#: Minimum stream count (trials x n) below which an ``auto`` cell,
#: failure-free or crash, stays on the per-trial columnar path.  A stack
#: pays fixed costs (a ~5 ms MT-seeding pass for Balls-into-Leaves,
#: adversary planning and class bookkeeping per round) that only
#: amortize across enough streams.  Measured on a two-core Xeon with
#: NumPy preloaded (stacked vs per-trial, median of 5): failure-free
#: Balls-into-Leaves cells run faster per-trial up to 256 streams
#: (16 x 2: 6.0 vs 0.75 ms), tie near 512 and stack faster from 1024
#: (32 x 32: 11 vs 18 ms; 256 x 32: 46 vs 121 ms); crash cells cross at
#: the same point (random:rate=0.1, 32 x 32: 30 vs 36 ms).  RNG-free
#: early-terminating stacks win from ~128 streams, but one floor costs
#: its small cells under 3 ms each.  Pinning ``kernel`` bypasses the
#: floor: ``vectorized`` always stacks, ``columnar`` never does.
MIN_STREAMS = 1 << 10


def _cell_config(spec: TrialSpec) -> Tuple[Any, ...]:
    """Everything but the seed: trials agreeing here can stack."""
    return (
        spec.algorithm,
        spec.n,
        spec.adversary,
        spec.halt_on_name,
        spec.crash_budget,
        spec.check,
        spec.kernel,
        spec.capture_errors,
        spec.monitor,
        spec.trace,
    )


def _mixed_cell_config(spec: TrialSpec) -> Tuple[Any, ...]:
    """The cell configuration up to the adversary.

    Hunt generations evaluate many one-of-a-kind crash schedules against
    one cell shape; grouping on this key (``mixed`` task planning) lets
    those stack with per-trial adversaries where :func:`_cell_config`
    grouping would leave every candidate on the per-trial path.
    """
    return (
        spec.algorithm,
        spec.n,
        spec.halt_on_name,
        spec.crash_budget,
        spec.check,
        spec.kernel,
        spec.capture_errors,
        spec.monitor,
        spec.trace,
    )


def _stackable(spec: TrialSpec) -> bool:
    """Can trials shaped like ``spec`` run as one vectorized cell?

    Delegates the supported-grid decision to the kernel's own rejection
    logic so the batch upgrade and an explicitly pinned
    ``kernel="vectorized"`` accept exactly the same cells.
    """
    if spec.kernel not in ("auto", "vectorized"):
        return False
    from repro.sim.vectorized import cell_rejection

    policy = ALGORITHMS.get(spec.algorithm)
    budget = spec.n - 1 if spec.crash_budget is None else spec.crash_budget
    request = KernelRequest(
        algorithm=spec.algorithm,
        ids=tuple(sparse_ids(spec.n)),
        seed=spec.seed,
        policy=policy,
        adversary=spec.adversary.build(spec.seed),
        crash_budget=budget,
        halt_on_name=spec.halt_on_name,
        monitor=spec.monitor,
        trace=None if spec.trace == "off" else Trace(),
        trace_mode=spec.trace,
    )
    return cell_rejection(request) is None


def plan_tasks(
    specs: Sequence[TrialSpec], *, parts: int = 1, mixed: bool = False
) -> List[Task]:
    """Fold runs of same-cell specs into stacked tasks, order-preserving.

    ``parts`` splits large stacks (one per worker, roughly) so a single
    big cell still spreads across a pool; every stack additionally
    respects the :data:`MAX_STREAMS` memory budget.  Specs the
    vectorized engine cannot stack stay individual trials.

    ``mixed`` groups on :func:`_mixed_cell_config` instead — trials of
    one cell shape stack even when each carries its own adversary spec
    (the hunt batching hint), provided every adversary in the run shares
    a name.  A name does not settle certification (``schedule`` covers
    crash-only and omit genotypes), so each adversary spec is probed on
    its own, and only runs of consecutive stackable specs stack.

    ``auto`` groups additionally respect the :data:`MIN_STREAMS`
    floor: below it a stack's fixed seeding and per-round costs outweigh
    the amortization, so small cells keep the per-trial columnar path (a
    pure scheduling choice — the engines are bit-identical).  A pinned
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
    """Is a same-config ``group`` big enough to stack?  A pinned
    ``vectorized`` group asked to stack, so it takes no stream floor."""
    spec = group[0]
    return len(group) >= 2 and (
        spec.kernel != "auto" or len(group) * spec.n >= MIN_STREAMS
    )


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
        policy=ALGORITHMS[spec.algorithm],
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
            limit = (
                error.limit
                if isinstance(error, RoundLimitExceeded)
                else default_round_limit(trial_spec.n, trial_spec.crash_budget)
            )
            results.append(
                TrialResult(
                    spec=trial_spec,
                    rounds=limit,
                    failures=0,
                    messages_sent=0,
                    messages_delivered=0,
                    last_round_named=None,
                    names=(),
                    kernel=trial_spec.kernel,
                    error=f"{type(error).__name__}: {error}",
                    monitor=trial_spec.monitor,
                    violations=tuple(
                        v.render() for v in getattr(error, "violations", ())
                    ),
                    trace=trace,
                )
            )
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
                last_round_named=cell.last_round_named(t),
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
    """Where work items run: in-process, or across a process pool.

    ``Pool.map`` preserves input order, so results come back in exactly
    the order the in-process loop produces — determinism under
    parallelism.  Items ship in ~4 chunks per worker, so a worker runs a
    stretch of same-``n`` tasks back to back and builds its process-local
    :func:`~repro.tree.topology.cached_topology` once per size instead of
    once per item.
    """

    name: str = "serial"
    workers: int = 1

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """``[fn(item) for item in items]``, spread over a fresh pool.

        One worker, or fewer than two items, runs in-process: there is
        nothing to spread, and pool start-up would dominate.
        """
        items = list(items)
        if self.workers == 1 or len(items) < 2:
            return [fn(item) for item in items]
        with multiprocessing.Pool(self.workers) as pool:
            return pool.map(fn, items, max(1, len(items) // (4 * self.workers)))


def as_executor(
    value: Union[None, str, Executor], *, workers: Optional[int] = None
) -> Executor:
    """Coerce a name / None / executor to an :class:`Executor`.

    None means serial, or process when ``workers > 1``; "process"
    without ``workers`` uses one worker per CPU.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if isinstance(value, Executor):
        return value
    if value is None:
        value = "process" if workers is not None and workers > 1 else "serial"
    if value == "serial":
        return Executor()
    if value == "process":
        return Executor("process", workers or os.cpu_count() or 1)
    raise ConfigurationError(f"unknown executor {value!r}; choose from {EXECUTORS}")


# -------------------------------------------------------------- scenario matrix


@dataclass(frozen=True)
class ScenarioMatrix:
    """An algorithm x size x adversary x seed grid of trials."""

    algorithms: Tuple[str, ...]
    sizes: Tuple[int, ...]
    adversaries: Tuple[AdversarySpec, ...] = (AdversarySpec(),)
    trials: int = 1
    base_seed: int = 0
    seed_mode: str = "legacy"
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
        seed_mode: str = "legacy",
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
            if algorithm not in ALGORITHMS:
                raise ConfigurationError(
                    f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
                )
        if not algorithms or not sizes or not adversary_specs:
            raise ConfigurationError("a scenario matrix needs >= 1 of every dimension")
        for n in sizes:
            if n < 1:
                raise ConfigurationError(f"sizes must be >= 1, got {n}")
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        if seed_mode not in SEED_MODES:
            raise ConfigurationError(
                f"unknown seed mode {seed_mode!r}; choose from {SEED_MODES}"
            )
        check_kernel_name(kernel)
        check_monitor_mode(monitor)
        check_trace_mode(trace)
        return cls(
            algorithms=algorithms,
            sizes=sizes,
            adversaries=adversary_specs,
            trials=trials,
            base_seed=base_seed,
            seed_mode=seed_mode,
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

    def trial_seed(self, algorithm: str, n: int, adversary: AdversarySpec, trial: int) -> int:
        """The seed of one trial under this matrix's seed mode."""
        if self.seed_mode == "legacy":
            return self.base_seed * 100_003 + trial
        return derived_trial_seed(self.base_seed, algorithm, n, adversary.key, trial)

    def expand(self) -> List[TrialSpec]:
        """All trial specs, cells in grid order, seeds ascending per cell."""
        specs: List[TrialSpec] = []
        for algorithm in self.algorithms:
            for n in self.sizes:
                for adversary in self.adversaries:
                    for trial in range(self.trials):
                        specs.append(
                            TrialSpec(
                                algorithm=algorithm,
                                n=n,
                                seed=self.trial_seed(algorithm, n, adversary, trial),
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
    executor: Union[None, str, Executor] = None,
    workers: Optional[int] = None,
    mixed_cells: bool = False,
) -> BatchResult:
    """Expand (if needed) and execute a batch of trials.

    ``executor`` may be an :class:`Executor`, a name from
    :data:`EXECUTORS`, or None (serial; or process when ``workers > 1``).
    Eligible cells — failure-free and certified-crash alike, from the
    stream floor up — run trial-stacked on the vectorized engine (one
    call per cell, split across workers); results are bit-identical
    either way, so backends and kernels interchange freely.
    ``mixed_cells`` extends stacking to groups whose trials carry
    per-trial adversary specs (hunt batches).
    """
    specs = source.expand() if isinstance(source, ScenarioMatrix) else list(source)
    backend = as_executor(executor, workers=workers)
    # repro: lint-ok[D102] wall-clock telemetry (BatchResult.elapsed), never a result row
    started = time.perf_counter()
    tasks = plan_tasks(specs, parts=backend.workers, mixed=mixed_cells)
    results = [result for chunk in backend.map(_run_task, tasks) for result in chunk]
    # repro: lint-ok[D102] wall-clock telemetry (BatchResult.elapsed), never a result row
    elapsed = time.perf_counter() - started
    return BatchResult(trials=results, executor=backend.name, elapsed=elapsed)
