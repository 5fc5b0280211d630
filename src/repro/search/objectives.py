"""Search objectives: scoring a trial outcome, higher = worse for the
algorithm.

Every objective maps a :class:`~repro.sim.batch.TrialResult` to a float
the strategies *maximize*.  Scores are designed to give hill-climbing a
gradient toward a violation rather than a flat pass/fail: the
invariant-checker objective, for instance, scores *partial* violations
(each duplicate name, out-of-range name, or undecided survivor adds
weight) with the round count as a tie-breaker, so a schedule that nearly
breaks uniqueness outranks one that is merely slow.

A captured execution failure (``TrialResult.error``, produced under
``capture_errors=True``) is the strongest possible signal — a deadlock
*is* the liveness violation the paper rules out — and dominates every
violation-sensitive objective via :data:`ERROR_SCORE`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.sim.batch import TrialResult

#: Dominates any achievable round/message count: a trial that failed
#: outright (deadlock past the round budget, engine/spec error) outranks
#: every terminating execution on violation-sensitive objectives.
ERROR_SCORE = 1_000_000.0

#: Weights of the invariant objective's partial-violation terms.  A hard
#: violation (duplicate/out-of-range name) outweighs a missing decision,
#: which outweighs any round-count gradient.
DUPLICATE_WEIGHT = 10_000.0
RANGE_WEIGHT = 10_000.0
MISSING_WEIGHT = 1_000.0


class Objective(ABC):
    """One search target over trial outcomes."""

    name: str = "abstract"

    @abstractmethod
    def score(self, result: TrialResult) -> float:
        """The objective value of one trial (higher = worse case found)."""

    def describe(self) -> str:
        """One line for reports and ``--help``-style listings."""
        return self.__doc__.strip().splitlines()[0]


class RoundsObjective(Objective):
    """Worst-case round count (a deadlocked run scores its round budget)."""

    name = "rounds"

    def score(self, result: TrialResult) -> float:
        # A captured deadlock already reports rounds == the exhausted
        # budget, which exceeds any terminating run's count by design.
        return float(result.rounds)


class MessagesObjective(Objective):
    """Total messages sent (communication-complexity stress)."""

    name = "messages"

    def score(self, result: TrialResult) -> float:
        # A captured failure reports zero messages (the run never
        # finished counting); score it as the find it is rather than
        # steering the search away from deadlocks.
        if result.error is not None:
            return ERROR_SCORE
        return float(result.messages_sent)


class NamespaceObjective(Objective):
    """Namespace width: the largest name decided, plus any range breaks.

    Tight renaming promises names in ``0..n-1``; a schedule forcing the
    maximum name higher (or out of range entirely) attacks the namespace
    bound directly.
    """

    name = "namespace"

    def score(self, result: TrialResult) -> float:
        if result.error is not None:
            return ERROR_SCORE
        names = [name for _, name in result.names]
        if not names:
            return 0.0
        width = float(max(names) + 1)
        out_of_range = sum(
            1 for name in names if not 0 <= name < result.spec.n
        )
        return width + RANGE_WEIGHT * out_of_range


class InvariantObjective(Objective):
    """Renaming-invariant stress: partial violations of the Section 3
    conditions, weighted, with rounds as the climbing gradient.

    Reimplements the :mod:`repro.sim.checker` conditions as a *score*
    instead of a raise: duplicates and out-of-range names (hard safety
    breaks) dominate missing decisions (termination breaks), which
    dominate the normalized round count that lets the search climb while
    everything still holds.
    """

    name = "invariant"

    def score(self, result: TrialResult) -> float:
        if result.error is not None:
            return ERROR_SCORE
        n = result.spec.n
        names = [name for _, name in result.names]
        duplicates = len(names) - len(set(names))
        out_of_range = sum(1 for name in names if not 0 <= name < n)
        # Correct (never-crashed) processes that never decided.
        missing = max(0, n - result.failures - len(names))
        gradient = result.rounds / 1000.0
        return (
            DUPLICATE_WEIGHT * duplicates
            + RANGE_WEIGHT * out_of_range
            + MISSING_WEIGHT * missing
            + gradient
        )


class LivenessObjective(Objective):
    """Liveness-violation indicator: undecided survivors and deadlocks,
    with decision latency (the last round anyone named) as the gradient."""

    name = "liveness"

    def score(self, result: TrialResult) -> float:
        if result.error is not None:
            return ERROR_SCORE + float(result.rounds)
        n = result.spec.n
        missing = max(0, n - result.failures - len(result.names))
        latency = float(
            result.last_round_named
            if result.last_round_named is not None
            else result.rounds
        )
        return MISSING_WEIGHT * missing + latency


class TailObjective(Objective):
    """Round-tail mass proxy: rounds in ⌈log log n⌉ units, the level
    coordinate of the importance-splitting estimator.

    Hunting under this objective finds the schedules that push a run
    deepest into the round-count tail — i.e. the adversarial analogue of
    the rare events :func:`repro.monitor.splitting.run_tail` estimates
    for failure-free runs.  A deadlock (captured error) dominates: it is
    infinite tail mass.
    """

    name = "tail"

    def score(self, result: TrialResult) -> float:
        from repro.monitor.splitting import loglog_unit

        unit = loglog_unit(result.spec.n)
        if result.error is not None:
            return ERROR_SCORE + float(result.rounds)
        return result.rounds / unit


class DisruptionObjective(Objective):
    """Invariant damage per injected fault: rewards schedules that break
    the most with the least interference.

    The numerator is the :class:`InvariantObjective` score; the
    denominator counts every fault the run actually absorbed (crashes
    and dropped links), so a two-link omission forcing a duplicate name
    outranks a blanket loss pattern achieving the same — the natural
    fitness for mining *minimal* fault schedules before
    :func:`repro.search.shrink.shrink` even runs.
    """

    name = "disruption"

    def __init__(self) -> None:
        self._invariant = InvariantObjective()

    def score(self, result: TrialResult) -> float:
        damage = self._invariant.score(result)
        return damage / (1.0 + result.failures + result.omissions)


#: The built-in objectives by CLI name.
OBJECTIVES: Dict[str, Objective] = {
    objective.name: objective
    for objective in (
        RoundsObjective(),
        MessagesObjective(),
        NamespaceObjective(),
        InvariantObjective(),
        LivenessObjective(),
        TailObjective(),
        DisruptionObjective(),
    )
}


def as_objective(value) -> Objective:
    """Coerce a name or instance to an :class:`Objective`."""
    if isinstance(value, Objective):
        return value
    if value in OBJECTIVES:
        return OBJECTIVES[value]
    raise ConfigurationError(
        f"unknown objective {value!r}; choose from {sorted(OBJECTIVES)}"
    )


def objective_summaries() -> List[str]:
    """``name — first docstring line`` for each objective, sorted."""
    return [
        f"{name} — {OBJECTIVES[name].describe()}" for name in sorted(OBJECTIVES)
    ]
