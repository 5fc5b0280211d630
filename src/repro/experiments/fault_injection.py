"""EXP-FAULT — degradation beyond the crash model: message omission.

The paper's guarantees are proved for crash faults only.  This
experiment measures what i.i.d. per-link loss at rate ``p`` (and a
targeted silencing of one sender) does to Balls-into-Leaves on the same
rails the crash results use.  Loss is not graceful: an asymmetric drop
of a round-1 hello partitions the membership picture (peers purge the
silenced ball; its own view never learns), which can wedge the run past
the round limit or produce duplicate names.  The table reports both
failure modes honestly — wedged runs are captured as error rows,
duplicate names are counted against the survivors — alongside the
round/message degradation of the runs that do terminate.

Every trial runs with ``check=False`` and ``capture_errors=True``: the
point is to *measure* violations, not raise on the first one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.stats import summarize
from repro.analysis.tables import Table
from repro.experiments.common import ExperimentResult, scaled
from repro.sim.batch import Executor, TrialResult, run_batch
from repro.sim.specs import AdversarySpec, TrialSpec

EXPERIMENT_ID = "EXP-FAULT"
TITLE = "Fault injection beyond crashes: omission"

ALGORITHM = "balls-into-leaves"


def _specs_for(
    adversary: AdversarySpec, n: int, trials: int, base_seed: int
) -> List[TrialSpec]:
    return [
        TrialSpec(
            algorithm=ALGORITHM,
            n=n,
            seed=base_seed + t,
            adversary=adversary,
            halt_on_name=True,
            check=False,
            capture_errors=True,
        )
        for t in range(trials)
    ]


def _duplicate_names(trial: TrialResult) -> bool:
    names = [name for _pid, name in trial.names]
    return len(names) != len(set(names))


def _row(
    label: str, results: Sequence[TrialResult]
) -> Tuple[str, float, float, float, float, float]:
    """(label, mean rounds, p95 rounds, wedged%, dup%, mean injected)."""
    finished = [r for r in results if r.error is None]
    wedged = 100.0 * (len(results) - len(finished)) / len(results)
    dup = (
        100.0 * sum(1 for r in finished if _duplicate_names(r)) / len(finished)
        if finished
        else 0.0
    )
    rounds = summarize([r.rounds for r in finished]) if finished else None
    injected = sum(r.omissions for r in results) / len(results)
    return (
        label,
        rounds.mean if rounds else float("nan"),
        rounds.p95 if rounds else float("nan"),
        wedged,
        dup,
        injected,
    )


def run(
    scale: str = "paper",
    seed: int = 0,
    executor: Optional[Executor] = None,
) -> ExperimentResult:
    """Measure omission's degradation at a fixed n."""
    n = scaled(scale, 16, 64)
    trials = scaled(scale, 5, 25)
    result = ExperimentResult(EXPERIMENT_ID, TITLE, scale)

    lineup = [
        AdversarySpec.of("none", label="none"),
        AdversarySpec.of("omission", p=0.02, label="iid p=0.02"),
        AdversarySpec.of("omission", p=0.05, label="iid p=0.05"),
        AdversarySpec.of("omission", p=0.1, label="iid p=0.10"),
        AdversarySpec.of("omission", p=0.2, label="iid p=0.20"),
        AdversarySpec.of(
            "omission", p=0.2, first=3, last=6, label="iid p=0.20 rounds 3-6"
        ),
        AdversarySpec.of("omission-targeted", count=1, label="targeted 1"),
    ]
    specs: List[TrialSpec] = []
    for adversary in lineup:
        specs.extend(_specs_for(adversary, n, trials, seed))
    batch = run_batch(specs, executor=executor)
    table = Table(
        f"omission faults on {ALGORITHM} (n={n}, {trials} trials each)",
        [
            "adversary",
            "mean rounds",
            "p95",
            "wedged %",
            "dup-name %",
            "mean injected",
        ],
        notes=(
            "wedged = runs captured at the round limit; dup-name = "
            "terminating runs whose survivors share a name; injected "
            "= dropped messages per trial"
        ),
    )
    for i, adversary in enumerate(lineup):
        results = batch.trials[i * trials : (i + 1) * trials]
        table.add_row(*_row(adversary.key, results))
    result.tables.append(table)

    result.notes.append(
        "wedged omission runs are the hello-partition livelock the "
        "omission hunt mines deliberately (see repro hunt "
        "--fault-family omission)"
    )
    return result
