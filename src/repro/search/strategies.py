"""Search strategies over the crash-schedule genotype.

Three strategies share one :class:`Evaluator`:

* :class:`RandomSearch` — seeded uniform sampling of the genotype space,
  the baseline every smarter strategy must beat;
* :class:`HillClimb` — greedy ascent via *single-crash mutations* (add,
  remove, or edit one event), with deterministic restarts when stuck;
* :class:`Evolutionary` — a (mu + lambda) population: elite truncation
  selection, one-point crossover over event lists, mutation.

Candidate schedules are scored in *batches*: the evaluator turns each
generation into :class:`~repro.sim.specs.TrialSpec` rows (with
``capture_errors=True`` so a mined deadlock is data, not an abort) and
dispatches them through :func:`repro.sim.batch.run_batch` on the
caller's executor — searches parallelize like every experiment sweep
and reuse kernel auto-selection.  Every strategy emits *same-cell*
generations (one ``(algorithm, n, ...)`` shape, one schedule adversary
per candidate), so the evaluator always asks for
``run_batch(..., mixed_cells=True)`` and a whole generation stacks onto
the vectorized crash engine as one pass — bit-identical scores, so hunt
histories don't change, just their wall-clock.

Everything is deterministic in ``HuntConfig.seed``: strategy randomness
flows from a derived RNG, each candidate's trial seeds derive from the
*schedule digest* (so re-encountering a genotype rescores identically),
and the executors preserve order — the same hunt emits byte-identical
histories on the serial and multiprocessing backends.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import ConfigurationError
from repro.search.objectives import Objective, as_objective
from repro.search.schedule import CrashEvent, Schedule
from repro.sim.batch import Executor, TrialResult, run_batch
from repro.sim.kernel import check_monitor_mode
from repro.sim.rng import derive_rng, derive_seed
from repro.sim.runner import workload
from repro.sim.specs import AdversarySpec, TrialSpec

#: Genotype fault families a hunt can mine.
FAULT_FAMILY_CHOICES = ("crash", "omission", "mixed")


@dataclass(frozen=True)
class HuntConfig:
    """One fully-described search problem (a single matrix cell)."""

    algorithm: str = "balls-into-leaves"
    n: int = 16
    objective: str = "rounds"
    budget: int = 200
    seed: int = 0
    #: Trials per candidate; the candidate's score is the max over them.
    seeds_per_schedule: int = 1
    halt_on_name: bool = False
    crash_budget: Optional[int] = None
    #: Genotype bounds (both default from the model: the crash budget
    #: ``t`` and a round horizon of the expected run length plus slack).
    max_crashes: Optional[int] = None
    max_round: Optional[int] = None
    kernel: str = "auto"
    #: Runtime invariant monitoring during evaluations ("off"/"cheap"/
    #: "full"); monitor findings ride along in the evaluation rows.
    monitor: str = "off"
    #: Which fault family the genotype mines: "crash" (the historical
    #: hunt — bit-identical histories), "omission" (one-round link masks
    #: only), or "mixed" (both kinds in one schedule).
    fault_family: str = "crash"

    def __post_init__(self) -> None:
        check_monitor_mode(self.monitor)
        if self.fault_family not in FAULT_FAMILY_CHOICES:
            raise ConfigurationError(
                f"unknown fault family {self.fault_family!r}; "
                f"choose from {FAULT_FAMILY_CHOICES}"
            )
        workload(self.algorithm)
        if self.n < 2:
            raise ConfigurationError(f"hunting needs n >= 2, got {self.n}")
        if self.budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {self.budget}")
        if self.seeds_per_schedule < 1:
            raise ConfigurationError(
                f"seeds_per_schedule must be >= 1, got {self.seeds_per_schedule}"
            )
        if self.seeds_per_schedule > self.budget:
            raise ConfigurationError(
                f"budget ({self.budget}) cannot fit a single candidate at "
                f"{self.seeds_per_schedule} seeds per schedule"
            )
        for field_name in ("max_crashes", "max_round"):
            bound = getattr(self, field_name)
            if bound is not None and bound < 1:
                raise ConfigurationError(f"{field_name} must be >= 1, got {bound}")
        if (
            self.fault_family != "omission"
            and self.crash_budget is not None
            and self.crash_budget < 1
        ):
            # The budget clamps every crash event away, so such a hunt
            # would score genotypes whose crashes never fire.
            raise ConfigurationError(
                f"crash_budget must be >= 1 to mine crashes (fault family "
                f"{self.fault_family!r}), got {self.crash_budget}"
            )
        as_objective(self.objective)  # validate eagerly

    @property
    def effective_crash_budget(self) -> int:
        """The model's ``t`` (defaults to ``n - 1``)."""
        return self.n - 1 if self.crash_budget is None else self.crash_budget

    @property
    def effective_max_crashes(self) -> int:
        """Most events a sampled genotype may carry: ``max_crashes``, else
        the crash budget ``t`` — except under the omission family, whose
        events spend no crash budget — and never more than ``n - 1``."""
        if self.max_crashes is not None:
            return min(self.max_crashes, self.n - 1)
        if self.fault_family == "omission":
            return self.n - 1
        return min(self.effective_crash_budget, self.n - 1)

    @property
    def effective_max_round(self) -> int:
        """Latest round a sampled event may target: the failure-free
        horizon (O(log n) phases) plus slack for crash-extended runs.

        Deliberately tight — a run at size ``n`` lasts ~``2 log n``
        rounds, so sampling crash rounds far beyond that horizon wastes
        almost every event on a finished execution."""
        if self.max_round is not None:
            return self.max_round
        depth = max(1, math.ceil(math.log2(self.n)))
        return 2 * depth + 6

    def trial_spec(
        self,
        adversary: AdversarySpec,
        seed: int,
        *,
        kernel: Optional[str] = None,
        monitor: Optional[str] = None,
        trace: str = "off",
    ) -> TrialSpec:
        """One trial of this hunt's cell under ``adversary``: violations
        are scored, not raised, and a failing run is captured as data.

        Candidates, the bundled baseline and the scenario replay run on
        the hunt's ``kernel`` and ``monitor``; shrinking and kernel
        certification pin their own.
        """
        return TrialSpec(
            algorithm=self.algorithm,
            n=self.n,
            seed=seed,
            adversary=adversary,
            halt_on_name=self.halt_on_name,
            crash_budget=self.crash_budget,
            check=False,
            kernel=self.kernel if kernel is None else kernel,
            capture_errors=True,
            monitor=self.monitor if monitor is None else monitor,
            trace=trace,
        )


@dataclass(frozen=True)
class Evaluation:
    """One scored candidate: the genotype and its trial outcomes."""

    index: int
    schedule: Schedule
    score: float
    results: Tuple[TrialResult, ...]
    #: Per-trial objective scores, aligned with :attr:`results`.
    scores: Tuple[float, ...] = ()

    @property
    def best_result(self) -> TrialResult:
        """The trial that achieved :attr:`score` (first argmax)."""
        return self.results[self.scores.index(max(self.scores))]

    def row(self) -> Dict[str, Any]:
        """One JSON-ready history line (stable across executors)."""
        best = self.best_result
        return {
            "index": self.index,
            "digest": self.schedule.digest,
            "crashes": self.schedule.crashes,
            "omits": self.schedule.omits,
            "schedule": self.schedule.to_dict(),
            "score": self.score,
            "seed": best.spec.seed,
            "rounds": best.rounds,
            "messages_sent": best.messages_sent,
            "failures": best.failures,
            "error": best.error,
        }


class Evaluator:
    """Scores candidate schedules through the batch engine, in order.

    The budget counts *trials*: a candidate consumes
    ``seeds_per_schedule`` units.  Requests beyond the budget are
    truncated (deterministically, from the end), so every strategy stops
    at exactly the same evaluation count on every backend.  Every batch
    maps through ``executor`` (serial by default), which the caller
    owns and closes.
    """

    def __init__(
        self, config: HuntConfig, *, executor: Optional[Executor] = None
    ) -> None:
        self.config = config
        self.objective: Objective = as_objective(config.objective)
        self._backend = executor if executor is not None else Executor()
        self.history: List[Evaluation] = []
        self.trials_used = 0

    # ------------------------------------------------------------- accounting
    @property
    def trials_remaining(self) -> int:
        return max(0, self.config.budget - self.trials_used)

    @property
    def exhausted(self) -> bool:
        """True once no further candidate fits in the budget."""
        return self.trials_remaining < self.config.seeds_per_schedule

    # ------------------------------------------------------------- evaluation
    def evaluate(self, schedules: Sequence[Schedule]) -> List[Evaluation]:
        """Score candidates (in order), truncated to the budget."""
        per = self.config.seeds_per_schedule
        schedules = list(schedules)[: self.trials_remaining // per]
        if not schedules:
            return []
        config = self.config
        specs = [
            config.trial_spec(
                schedule.spec(),
                derive_seed(config.seed, "hunt", schedule.digest, trial),
            )
            for schedule in schedules
            for trial in range(per)
        ]
        # Generations share one cell shape: stack them across candidates.
        batch = run_batch(specs, executor=self._backend, mixed_cells=True)
        evaluations = []
        for i, schedule in enumerate(schedules):
            results = tuple(batch.trials[i * per : (i + 1) * per])
            scores = tuple(self.objective.score(result) for result in results)
            evaluations.append(
                Evaluation(
                    index=len(self.history),
                    schedule=schedule,
                    score=max(scores),
                    results=results,
                    scores=scores,
                )
            )
            self.history.append(evaluations[-1])
        self.trials_used += len(specs)
        return evaluations

    def best(self) -> Evaluation:
        """The highest-scoring candidate so far (earliest on ties)."""
        if not self.history:
            raise ConfigurationError("nothing evaluated yet")
        return max(self.history, key=lambda e: e.score)


# --------------------------------------------------------------- genotype ops


def random_event(rng, config: HuntConfig) -> CrashEvent:
    """Sample one fault event: round, victim, and a delivery mode drawn
    from {silent, partial subset, full broadcast}.

    The kind follows :attr:`HuntConfig.fault_family`; the "crash" family
    decides it without consuming randomness, so historical crash hunts
    replay bit-identically.
    """
    n = config.n
    round_no = rng.randint(1, config.effective_max_round)
    victim = rng.randrange(n)
    others = [i for i in range(n) if i != victim]
    mode = rng.randrange(3)
    if mode == 0:
        receivers: Tuple[int, ...] = ()
    elif mode == 1:
        receivers = tuple(rng.sample(others, rng.randint(1, len(others))))
    else:
        receivers = tuple(others)
    family = config.fault_family
    if family == "crash":
        kind = "crash"
    elif family == "omission":
        kind = "omit"
    else:
        kind = "omit" if rng.random() < 0.5 else "crash"
    return CrashEvent(round_no, victim, receivers, kind)


def random_schedule(rng, config: HuntConfig) -> Schedule:
    """Sample a genotype with 1..max_crashes events."""
    limit = config.effective_max_crashes
    events = [random_event(rng, config) for _ in range(rng.randint(1, limit))]
    return Schedule.of(config.n, events)


def mutate(rng, schedule: Schedule, config: HuntConfig) -> Schedule:
    """One single-crash edit: add, remove, or modify one event.

    Modification moves the event's round by +-1, retargets its victim,
    or toggles a single receiver — the smallest steps that matter, so
    hill-climbing explores a tight neighborhood and shrinking stays
    aligned with the search moves.
    """
    ops = ["add"] if len(schedule.events) < config.effective_max_crashes else []
    if schedule.events:
        ops += ["remove", "round", "victim", "receiver", "resample"]
    op = ops[rng.randrange(len(ops))]
    if op == "add":
        return schedule.with_event(random_event(rng, config))
    index = rng.randrange(len(schedule.events))
    event = schedule.events[index]
    if op == "remove":
        mutated = schedule.without_event(index)
        # Never collapse to the empty schedule: it is a single point the
        # random init already covers, and a dead end for every objective.
        # Resample in place rather than add, so the crash cap holds.
        return mutated if mutated.events else schedule.replace_event(
            index, random_event(rng, config)
        )
    if op == "round":
        delta = 1 if rng.random() < 0.5 else -1
        round_no = min(config.effective_max_round, max(1, event.round_no + delta))
        return schedule.replace_event(
            index,
            CrashEvent(round_no, event.victim, event.receivers, event.kind),
        )
    if op == "victim":
        victim = rng.randrange(config.n)
        return schedule.replace_event(
            index,
            CrashEvent(event.round_no, victim, event.receivers, event.kind),
        )
    if op == "receiver":
        peer = rng.randrange(config.n)
        receivers = set(event.receivers)
        receivers.symmetric_difference_update({peer})
        return schedule.replace_event(
            index,
            CrashEvent(
                event.round_no,
                event.victim,
                tuple(sorted(receivers)),
                event.kind,
            ),
        )
    return schedule.replace_event(index, random_event(rng, config))


def crossover(rng, a: Schedule, b: Schedule) -> Schedule:
    """One-point crossover over the two event lists (same ``n``)."""
    cut_a = rng.randint(0, len(a.events))
    cut_b = rng.randint(0, len(b.events))
    events = a.events[:cut_a] + b.events[cut_b:]
    if not events:
        events = a.events or b.events
    return Schedule.of(a.n, events)


# ------------------------------------------------------------------ strategies


class SearchStrategy(ABC):
    """One way of spending an evaluation budget."""

    name: str = "abstract"
    #: Candidates scored per batch dispatch — one executor round-trip,
    #: so searches parallelize across workers in generation-sized waves.
    batch_size: int = 16

    def rng_for(self, config: HuntConfig):
        """The strategy's private randomness (independent of trials')."""
        return derive_rng(config.seed, "hunt-strategy", self.name)

    @abstractmethod
    def run(self, evaluator: Evaluator) -> None:
        """Drive ``evaluator`` until its budget is exhausted."""


class RandomSearch(SearchStrategy):
    """Uniform seeded sampling — the baseline strategy."""

    name = "random"

    def run(self, evaluator: Evaluator) -> None:
        rng = self.rng_for(evaluator.config)
        while not evaluator.exhausted:
            batch = [
                random_schedule(rng, evaluator.config)
                for _ in range(self.batch_size)
            ]
            evaluator.evaluate(batch)


class HillClimb(SearchStrategy):
    """Greedy ascent by single-crash mutations, with drift and restarts.

    Each step scores a batch of mutations of the incumbent and moves to
    the best neighbor when it *ties or improves* — the round-count
    landscape is flat over wide plateaus (the paper's robustness result
    in action), so neutral drift is what keeps the climber exploring
    instead of circling one genotype.  Only strict improvements reset
    the stall counter; after ``patience`` stalled batches it restarts
    from a fresh random candidate (the global best lives in the
    evaluator's history, so restarts never lose it).
    """

    name = "hillclimb"
    batch_size = 8
    init_samples = 8
    #: Round-count plateaus are wide; restarting early buys breadth.
    patience = 2

    def run(self, evaluator: Evaluator) -> None:
        config = evaluator.config
        rng = self.rng_for(config)
        initial = evaluator.evaluate(
            [random_schedule(rng, config) for _ in range(self.init_samples)]
        )
        if not initial:
            return
        current = max(initial, key=lambda e: e.score)
        stalled = 0
        while not evaluator.exhausted:
            neighbors = evaluator.evaluate(
                [
                    mutate(rng, current.schedule, config)
                    for _ in range(self.batch_size)
                ]
            )
            if not neighbors:
                return
            best = max(neighbors, key=lambda e: e.score)
            if best.score > current.score:
                current, stalled = best, 0
                continue
            stalled += 1
            if best.score == current.score:
                current = best  # neutral drift across the plateau
            if stalled >= self.patience:
                restart = evaluator.evaluate([random_schedule(rng, config)])
                if restart:
                    current, stalled = restart[0], 0


class Evolutionary(SearchStrategy):
    """A (mu + lambda) population: elites survive, children are bred by
    crossover + mutation."""

    name = "evolve"
    population = 12
    elites = 4

    def run(self, evaluator: Evaluator) -> None:
        config = evaluator.config
        rng = self.rng_for(config)
        population = evaluator.evaluate(
            [random_schedule(rng, config) for _ in range(self.population)]
        )
        while population and not evaluator.exhausted:
            ranked = sorted(
                population, key=lambda e: (-e.score, e.index)
            )[: self.elites]
            children = []
            for _ in range(self.population):
                a, b = rng.sample(ranked, 2) if len(ranked) >= 2 else (
                    ranked[0],
                    ranked[0],
                )
                child = crossover(rng, a.schedule, b.schedule)
                if rng.random() < 0.9:
                    child = mutate(rng, child, config)
                children.append(child)
            offspring = evaluator.evaluate(children)
            population = ranked + offspring


#: The built-in strategies by CLI name.
STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    cls.name: cls for cls in (RandomSearch, HillClimb, Evolutionary)
}


def as_strategy(value) -> SearchStrategy:
    """Coerce a name or instance to a :class:`SearchStrategy`."""
    if isinstance(value, SearchStrategy):
        return value
    if value in STRATEGIES:
        return STRATEGIES[value]()
    raise ConfigurationError(
        f"unknown strategy {value!r}; choose from {sorted(STRATEGIES)}"
    )


# ------------------------------------------------------------------ the hunt


@dataclass
class HuntResult:
    """Everything a finished hunt produced."""

    config: HuntConfig
    strategy: str
    evaluations: List[Evaluation] = field(default_factory=list)
    executor: str = "serial"

    @property
    def best(self) -> Evaluation:
        """The worst case found (highest score; earliest on ties)."""
        return max(self.evaluations, key=lambda e: e.score)

    def top(self, k: int = 5) -> List[Evaluation]:
        """The ``k`` highest-scoring *distinct* schedules."""
        seen, ranked = set(), []
        for evaluation in sorted(
            self.evaluations, key=lambda e: (-e.score, e.index)
        ):
            if evaluation.schedule.digest in seen:
                continue
            seen.add(evaluation.schedule.digest)
            ranked.append(evaluation)
            if len(ranked) == k:
                break
        return ranked

    def rows(self) -> List[Dict[str, Any]]:
        """The full evaluation history as JSON-ready rows (one per
        candidate, in evaluation order — the ``--out *.jsonl`` payload)."""
        base = {
            "strategy": self.strategy,
            "objective": self.config.objective,
            "algorithm": self.config.algorithm,
            "n": self.config.n,
            "base_seed": self.config.seed,
            "fault_family": self.config.fault_family,
        }
        return [{**base, **evaluation.row()} for evaluation in self.evaluations]


def run_hunt(
    config: HuntConfig,
    strategy="random",
    *,
    executor: Optional[Executor] = None,
) -> HuntResult:
    """Search one cell for worst-case schedules.  The main search API.

    Every generation maps through ``executor`` (serial when omitted),
    which the caller owns, so a process executor's one pool serves the
    whole search.
    """
    search = as_strategy(strategy)
    backend = Executor() if executor is None else executor
    evaluator = Evaluator(config, executor=backend)
    search.run(evaluator)
    return HuntResult(
        config=config,
        strategy=search.name,
        evaluations=evaluator.history,
        executor=backend.name,
    )
