"""The bundled-adversary baseline a hunt must beat.

A mined schedule is only interesting relative to the hand-written
gauntlet: this module scores every bundled adversary on the hunt's cell,
under the hunt's objective and an equivalent derived-seed protocol, and
adapts both sides to :class:`~repro.analysis.worst_case.WorstCaseEntry`
rows for the shared comparison table.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.worst_case import WorstCaseEntry
from repro.errors import ConfigurationError
from repro.search.objectives import as_objective
from repro.search.strategies import Evaluation, HuntConfig
from repro.sim.batch import Executor, run_batch
from repro.sim.rng import derive_seed
from repro.sim.specs import AdversarySpec

#: The hand-written strategies every synthesis run is measured against —
#: the EXP-ADV gauntlet lineup.
BUNDLED_GAUNTLET: Tuple[AdversarySpec, ...] = (
    AdversarySpec.of("none", label="none"),
    AdversarySpec.of("random", rate=0.05, label="random 5%"),
    AdversarySpec.of("random", rate=0.20, label="random 20%"),
    AdversarySpec.of("targeted", label="targeted-priority"),
    AdversarySpec.of("sandwich", label="sandwich"),
    AdversarySpec.of("half-split", label="half-split r1"),
    AdversarySpec.of("half-split", last_round=200, label="half-split all"),
)

#: The omission-family counterpart: what an ``--fault-family omission``
#: hunt must beat.  Every entry's loss is capped *and* windowed well past
#: the hello round, so the bundled runs terminate and the rounds
#: objective compares finite scores: even post-hello loss can wedge a
#: silenced ball (its leaf is reused under it while its own view never
#: learns), so the windows here were tuned to settings that survive.  A
#: mined schedule is free to discover that a single round-1 hello drop
#: wedges a ball past the round limit — exactly the kind of find the
#: gauntlet should lose to.
OMISSION_GAUNTLET: Tuple[AdversarySpec, ...] = (
    AdversarySpec.of("none", label="none"),
    AdversarySpec.of(
        "omission", p=0.05, max_omissions=4, first=3, last=6,
        label="omission 5%",
    ),
    AdversarySpec.of(
        "omission", p=0.1, max_omissions=6, first=3, last=6,
        label="omission 10%",
    ),
    AdversarySpec.of(
        "omission", p=0.2, max_omissions=8, first=3, last=6,
        label="omission 20%",
    ),
    AdversarySpec.of(
        "omission-targeted", count=1, first=3, last=8,
        label="omission-targeted 1",
    ),
    AdversarySpec.of(
        "omission-targeted", count=2, first=3, last=8,
        label="omission-targeted 2",
    ),
)


def gauntlet_for(config: HuntConfig) -> Tuple[AdversarySpec, ...]:
    """The bundled lineup matching the hunt's fault family."""
    if config.fault_family == "omission":
        return OMISSION_GAUNTLET
    if config.fault_family == "mixed":
        return BUNDLED_GAUNTLET + OMISSION_GAUNTLET[1:]
    return BUNDLED_GAUNTLET


def evaluate_bundled(
    config: HuntConfig, *, trials: int = 5, executor: Optional[Executor] = None
) -> List[WorstCaseEntry]:
    """Score each bundled adversary's worst trial on the hunt's cell.

    Each adversary of the lineup matching the hunt's fault family
    (:func:`gauntlet_for`) runs ``trials`` seeds derived from the hunt's
    base seed (independent of the search's own streams), as the same
    :meth:`~repro.search.strategies.HuntConfig.trial_spec` trials the
    hunt scores, on ``executor`` (serial when omitted).
    """
    if trials < 1:
        raise ConfigurationError(f"the baseline needs >= 1 trial, got {trials}")
    lineup = gauntlet_for(config)
    objective = as_objective(config.objective)
    # One dispatch for the whole gauntlet: all specs are independent, so
    # one map spreads them over every worker instead of seven small maps.
    specs = [
        config.trial_spec(
            adversary, derive_seed(config.seed, "hunt-baseline", adversary.key, t)
        )
        for adversary in lineup
        for t in range(trials)
    ]
    all_results = run_batch(specs, executor=executor).trials
    entries = []
    for i, adversary in enumerate(lineup):
        results = all_results[i * trials : (i + 1) * trials]
        scores = [objective.score(result) for result in results]
        worst = results[scores.index(max(scores))]
        entries.append(
            WorstCaseEntry(
                label=adversary.key,
                source="bundled",
                score=max(scores),
                rounds=worst.rounds,
                failures=worst.failures,
                messages_sent=worst.messages_sent,
                trials=trials,
                error=worst.error,
            )
        )
    return entries


def hunt_entry(evaluation: Evaluation, label: Optional[str] = None) -> WorstCaseEntry:
    """A hunted candidate as a comparison-table row."""
    best = evaluation.best_result
    return WorstCaseEntry(
        label=label or f"schedule:{evaluation.schedule.digest}",
        source="hunt",
        score=evaluation.score,
        rounds=best.rounds,
        failures=best.failures,
        messages_sent=best.messages_sent,
        trials=len(evaluation.results),
        error=best.error,
    )
