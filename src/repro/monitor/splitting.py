"""Fixed-effort multilevel importance splitting over round counts.

The paper's running-time theorem is a tail statement — w.h.p. every ball
names within O(log log n) rounds — but direct Monte Carlo can only see
tail mass down to ~1/trials.  This estimator reaches far deeper by
splitting the rare event "the run is still going after round L" into a
chain of level crossings

    P(rounds > L_m) = P(rounds > L_0) · ∏ P(rounds > L_j | rounds > L_{j-1})

and estimating each conditional factor with a fixed-size population:
stage 0 runs fresh trials to the first level; each later stage resamples
the previous stage's survivor checkpoints (with replacement), clones
them under freshly derived seeds, and advances the clones to the next
level.  Cloning mid-run is sound because the protocol is Markov given
the exported engine state (positions, lifecycle, subtree counts): future
coin flips are independent of past ones, so a fresh derived stream is
just another realization of the conditional law.

Levels are absolute round numbers, by default the ladder of *odd* rounds
spanning k·⌈log log n⌉ for a range of k (balls only halt in odd position
rounds, so even levels would add degenerate factors of exactly 1).  With
T trials per stage and m stages of factor ~p each, the reachable tail is
p^m (e.g. three stages of p ≈ 1e-3 ≈ 1e-9) at cost m·T runs instead of
1/p^m; because the factors decay with depth, ``growth`` lets the deep
(cheap, two-round) stages run larger populations than stage 0.

Everything is deterministic by construction: trial seeds and resampling
choices all derive from the root seed via :func:`repro.sim.rng.derive_seed`
scopes, work ships in fixed-size chunks, and every stage maps its chunks
through the caller's order-preserving :class:`~repro.sim.batch.Executor`
(one pool for the whole ladder) — so serial and multiprocessing
executions produce byte-identical results (asserted by the estimator
determinism suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, KernelUnsupported
from repro.sim.batch import Executor
from repro.sim.kernel import auto_kernel, check_kernel_name, kernel_rejection
from repro.sim.rng import derive_rng, derive_seed


def loglog_unit(n: int) -> int:
    """⌈log₂ log₂ n⌉, clamped to ≥ 1 — the paper's round-complexity unit."""
    inner = math.log2(max(2, n))
    return max(1, math.ceil(math.log2(max(2.0, inner))))


def default_levels(n: int, k_min: int = 2, k_max: int = 5) -> Tuple[int, ...]:
    """Odd-round levels spanning ``k_min``·⌈log log n⌉ .. ``k_max``·⌈log log n⌉.

    Balls only halt in position rounds (odd rounds ≥ 3), so "running
    after round 2m" is the *same event* as "running after round 2m-1"
    and even levels would contribute degenerate factors of exactly 1.
    The useful ladder is consecutive odd rounds — each crossing is one
    position-round survival, which keeps every conditional factor away
    from 0 and 1 even though the round distribution is doubly-
    exponentially concentrated.
    """
    if k_min < 1 or k_max < k_min:
        raise ConfigurationError(
            f"need 1 <= k_min <= k_max, got k_min={k_min}, k_max={k_max}"
        )
    unit = loglog_unit(n)
    lo, hi = k_min * unit, k_max * unit
    # Round the low end DOWN to its odd round (the events are equal and
    # the first level then covers P(rounds > k_min·unit) exactly) and
    # the high end UP so the ladder spans the whole requested k range.
    first = max(3, lo if lo % 2 == 1 else lo - 1)
    last = max(first, hi if hi % 2 == 1 else hi + 1)
    return tuple(range(first, last + 1, 2))


@dataclass(frozen=True)
class TailConfig:
    """One tail-estimation job: the cell, the levels, the effort."""

    n: int
    algorithm: str = "balls-into-leaves"
    seed: int = 0
    #: Trials per stage (the fixed splitting effort).
    trials: int = 256
    #: Absolute round-number levels, strictly increasing; empty = the
    #: :func:`default_levels` ladder.
    levels: Tuple[int, ...] = ()
    halt_on_name: bool = False
    kernel: str = "auto"
    #: Work-unit size: trials ship to workers in chunks of exactly this
    #: many, independent of the executor, so parallel runs replay the
    #: serial schedule.
    chunk: int = 64
    #: Per-stage population growth factor.  The conditional factors of
    #: this process decay doubly-exponentially (survivors of level L are
    #: "almost done" states), so a fixed-effort ladder goes extinct after
    #: one or two stages; growth > 1 spends more clones on the deep
    #: stages, which are cheap — each clone only advances two rounds.
    growth: float = 1.0
    #: Hard cap on any single stage's population.
    max_trials: int = 65536

    def stage_trials(self, stage: int) -> int:
        """Population size of stage ``stage``: trials·growth^stage, capped."""
        try:
            population = round(self.trials * self.growth**stage)
        except OverflowError:  # growth^stage is past any float, so past the cap
            return self.max_trials
        return min(self.max_trials, max(1, population))

    def resolved_levels(self) -> Tuple[int, ...]:
        levels = self.levels or default_levels(self.n)
        if any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 1:
            raise ConfigurationError(
                f"levels must be strictly increasing round numbers >= 1, "
                f"got {levels}"
            )
        return tuple(int(level) for level in levels)


@dataclass(frozen=True)
class StageResult:
    """One level crossing: survivors / trials estimates the factor."""

    stage: int
    level: int
    trials: int
    survivors: int

    @property
    def p(self) -> float:
        return self.survivors / self.trials


@dataclass(frozen=True)
class TailResult:
    """The full splitting ladder for one cell."""

    config: TailConfig
    unit: int
    levels: Tuple[int, ...]
    stages: Tuple[StageResult, ...] = field(default_factory=tuple)

    def estimate_after(self, stage: int) -> float:
        """P(rounds > levels[stage]) — the product of factors so far."""
        product = 1.0
        for result in self.stages[: stage + 1]:
            product *= result.p
        return product

    @property
    def estimate(self) -> float:
        """P(rounds > levels[-1]); 0.0 if any stage lost every trial."""
        return self.estimate_after(len(self.stages) - 1)

    @property
    def upper_bound(self) -> Optional[float]:
        """When the ladder went extinct (last stage had 0 survivors),
        the one-survivor resolution limit: the estimate would have been
        at most ~ estimate_before · 1/N.  None for a live ladder."""
        if not self.stages or self.stages[-1].survivors > 0:
            return None
        last = self.stages[-1]
        before = self.estimate_after(last.stage - 1) if last.stage else 1.0
        return before / last.trials

    @property
    def rel_std(self) -> Optional[float]:
        """First-order relative standard error of the fixed-effort
        estimator, √Σ(1-p_j)/(N·p_j); None once a stage hit p = 0."""
        total = 0.0
        for result in self.stages:
            if result.survivors == 0:
                return None
            total += (1.0 - result.p) / (result.trials * result.p)
        return math.sqrt(total)

    def rows(self) -> List[Dict[str, Any]]:
        """jsonl rows: one per stage plus a final estimate row."""
        config = self.config
        base = {
            "algorithm": config.algorithm,
            "n": config.n,
            "seed": config.seed,
            "halt_on_name": config.halt_on_name,
            "unit": self.unit,
        }
        rows = []
        for result in self.stages:
            rows.append(
                dict(
                    base,
                    row="stage",
                    stage=result.stage,
                    level=result.level,
                    trials=result.trials,
                    survivors=result.survivors,
                    p=result.p,
                    estimate=self.estimate_after(result.stage),
                )
            )
        rows.append(
            dict(
                base,
                row="estimate",
                level=self.levels[-1] if self.levels else None,
                levels=list(self.levels),
                estimate=self.estimate,
                rel_std=self.rel_std,
                upper_bound=self.upper_bound,
            )
        )
        return rows

    def render(self) -> str:
        lines = [
            f"tail estimate: {self.config.algorithm} n={self.config.n} "
            f"seed={self.config.seed} unit=ceil(loglog n)={self.unit}",
            f"{'stage':>5} {'level':>6} {'k':>6} {'trials':>7} "
            f"{'survivors':>9} {'p':>12} {'estimate':>12}",
        ]
        for result in self.stages:
            lines.append(
                f"{result.stage:>5} {result.level:>6} "
                f"{result.level / self.unit:>6.2f} {result.trials:>7} "
                f"{result.survivors:>9} {result.p:>12.3e} "
                f"{self.estimate_after(result.stage):>12.3e}"
            )
        rel = self.rel_std
        bound = self.upper_bound
        if bound is not None:
            last = self.stages[-1]
            lines.append(
                f"extinct at level {last.level}: 0 of {last.trials} clones "
                f"survived, so P(rounds > {last.level}) <~ {bound:.3e} "
                f"(raise --trials/--growth to resolve deeper)"
            )
        lines.append(
            f"P(rounds > {self.levels[-1]}) ~= {self.estimate:.3e}"
            + (f" (rel_std ~= {rel:.2f})" if rel is not None else "")
        )
        return "\n".join(lines)


# ----------------------------------------------------------------- worker side

#: One chunk of trials: (policy, n, halt_on_name, kernel, start_round,
#: stop_round, seeds, states) where ``states`` is None for fresh stage-0
#: trials or one exported checkpoint per seed for cloned resumes.
_ChunkTask = Tuple[
    str, int, bool, str, int, int, Tuple[int, ...], Optional[Tuple[dict, ...]]
]


def _run_tail_chunk(task: _ChunkTask) -> List[Tuple[bool, Optional[dict]]]:
    """Advance one chunk of trials to ``stop_round`` (module-level so
    pools can pickle it); returns ``(survived, checkpoint)`` per trial."""
    policy, n, halt_on_name, kernel, start_round, stop_round, seeds, states = task
    ids = list(range(n))
    if kernel == "vectorized":
        from repro.core.vectorized import VectorizedCrashEngine

        engine = VectorizedCrashEngine(
            ids, list(seeds), policy=policy, halt_on_name=halt_on_name
        )
        if states is not None:
            engine.inject_trial_states(list(states), start_round)
        engine.run(stop_after=stop_round)
        return [
            (
                bool(engine.running[t] > 0),
                engine.export_trial_state(t) if engine.running[t] > 0 else None,
            )
            for t in range(len(seeds))
        ]
    from repro.core.columnar import ColumnarCrashEngine

    out: List[Tuple[bool, Optional[dict]]] = []
    for i, trial_seed in enumerate(seeds):
        engine = ColumnarCrashEngine(
            ids, seed=trial_seed, policy=policy, halt_on_name=halt_on_name
        )
        round_no = 0
        if states is not None:
            engine.restore_state(states[i], start_round)
            round_no = start_round
        while engine.running_count and round_no < stop_round:
            round_no += 1
            engine.step(round_no)
        survived = engine.running_count > 0
        out.append((survived, engine.export_state() if survived else None))
    return out


# ----------------------------------------------------------------- driver side


def _chunks(values: Sequence, size: int) -> List[Tuple]:
    return [tuple(values[i : i + size]) for i in range(0, len(values), size)]


def run_tail(
    config: TailConfig, *, executor: Optional[Executor] = None
) -> TailResult:
    """Estimate P(rounds > L) for every level L of ``config``.

    Every stage maps its chunks through ``executor`` (serial when
    omitted), which the caller owns, so a process executor's one pool
    serves all stages.  The result is byte-identical across executors
    and kernels.

    ``auto`` picks each stage's engine by the one rule of
    :func:`~repro.sim.kernel.auto_kernel` over the stage's population:
    a stage of at least :data:`~repro.sim.kernel.MIN_STREAMS` ball-streams
    (trials x n) stacks on the vectorized engine, a smaller one runs
    columnar.  Chunking never changes the engine, and a resumed stage
    restores checkpoints from either engine.  The reference engine has no
    checkpoints, so pinning it is an error.
    """
    from repro.sim.runner import workload

    policy = workload(config.algorithm).policy
    if policy is None:
        raise ConfigurationError(
            f"{config.algorithm!r} has no Balls-into-Leaves round structure "
            f"to estimate tails for"
        )
    if config.trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {config.trials}")
    if config.chunk < 1:
        raise ConfigurationError(f"chunk must be >= 1, got {config.chunk}")
    if not (math.isfinite(config.growth) and config.growth >= 1.0):
        # NaN compares false both ways, and an infinite growth overflows
        # the second stage's population, so both are refused up front.
        raise ConfigurationError(
            f"growth must be a finite number >= 1.0, got {config.growth}"
        )
    if config.max_trials < config.trials:
        raise ConfigurationError(
            f"max_trials ({config.max_trials}) must be >= trials "
            f"({config.trials})"
        )
    check_kernel_name(config.kernel)
    if config.kernel == "reference":
        raise ConfigurationError(
            "tail estimation runs on the fast engines only; choose a kernel "
            "from ('auto', 'columnar', 'vectorized'), got 'reference'"
        )
    fields = dict(algorithm=config.algorithm, policy=policy)
    if config.kernel != "auto":
        reason = kernel_rejection(config.kernel, **fields)
        if reason is not None:
            raise KernelUnsupported(config.kernel, reason)
    backend = Executor() if executor is None else executor
    levels = config.resolved_levels()
    unit = loglog_unit(config.n)
    stages: List[StageResult] = []
    checkpoints: List[dict] = []
    start_round = 0
    for stage, level in enumerate(levels):
        stage_trials = config.stage_trials(stage)
        kernel = (
            auto_kernel(stage_trials, config.n, **fields)
            if config.kernel == "auto"
            else config.kernel
        )
        seeds = tuple(
            derive_seed(config.seed, "tail", stage, i)
            for i in range(stage_trials)
        )
        if stage == 0:
            states: Optional[Tuple[dict, ...]] = None
        else:
            if not checkpoints:
                break  # extinct: every deeper level keeps estimate 0.0
            resample = derive_rng(config.seed, "tail", "resample", stage)
            states = tuple(
                checkpoints[resample.randrange(len(checkpoints))]
                for i in range(stage_trials)
            )
        tasks = []
        seed_chunks = _chunks(seeds, config.chunk)
        state_chunks = (
            _chunks(states, config.chunk) if states is not None else None
        )
        for c, seed_chunk in enumerate(seed_chunks):
            tasks.append(
                (
                    policy,
                    config.n,
                    config.halt_on_name,
                    kernel,
                    start_round,
                    level,
                    seed_chunk,
                    state_chunks[c] if state_chunks is not None else None,
                )
            )
        outcomes = backend.map(_run_tail_chunk, tasks)
        checkpoints = [
            state for chunk in outcomes for survived, state in chunk if survived
        ]
        stages.append(
            StageResult(
                stage=stage,
                level=level,
                trials=stage_trials,
                survivors=len(checkpoints),
            )
        )
        start_round = level
    return TailResult(
        config=config, unit=unit, levels=levels, stages=tuple(stages)
    )
