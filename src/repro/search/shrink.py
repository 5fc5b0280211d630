"""Delta-debugging minimization of mined schedules.

PR 3's ghost-leaf deadlock was shrunk to a four-line pytest repro by
hand; this module automates that workflow for anything the search finds.
Given a schedule, the trial seed it fired under, and the objective score
to preserve, :func:`shrink` greedily reduces the genotype —

1. *event deletion* to 1-minimality (removing any single remaining event
   loses the behavior),
2. *receiver minimization* per event (prefer a silent crash; otherwise
   drop receivers one by one),
3. *round tightening* per event (pull each crash as early as it will go)

— re-running one pinned-seed trial per candidate, so the result is the
smallest schedule (under these moves) that still scores at least the
target.  :func:`replay_identical` then certifies the repro executes
bit-identically on the reference and columnar kernels, and
:func:`to_pytest` renders it as a ready-to-paste regression test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.search.objectives import as_objective
from repro.search.schedule import CrashEvent, Schedule
from repro.search.strategies import HuntConfig
from repro.sim.batch import TrialResult, run_trial


def replay(
    schedule: Schedule,
    config: HuntConfig,
    seed: int,
    *,
    kernel: str = "auto",
) -> TrialResult:
    """Re-execute one (schedule, seed) pair as the hunt ran it, with the
    monitor off: ``monitor="full"`` pins the reference engine, so
    :func:`replay_identical` could not certify the columnar one."""
    return run_trial(
        config.trial_spec(schedule.spec(), seed, kernel=kernel, monitor="off")
    )


def replay_identical(
    schedule: Schedule, config: HuntConfig, seed: int
) -> Tuple[TrialResult, TrialResult]:
    """Replay on the reference *and* columnar kernels; raise on divergence.

    Returns ``(reference, columnar)`` results whose rounds, decisions,
    failure counts, and message totals were verified equal — the
    certification step before a mined schedule becomes a regression test.
    A cell the columnar kernel cannot model (e.g. a non-BiL algorithm)
    propagates :class:`~repro.errors.KernelUnsupported` unchanged.
    """
    reference = replay(schedule, config, seed, kernel="reference")
    columnar = replay(schedule, config, seed, kernel="columnar")
    for field in (
        "rounds",
        "failures",
        "messages_sent",
        "messages_delivered",
        "last_round_named",
        "names",
        "error",
    ):
        ref, col = getattr(reference, field), getattr(columnar, field)
        if ref != col:
            raise SimulationError(
                f"schedule {schedule.digest} diverges between kernels on "
                f"{field}: reference={ref!r} columnar={col!r}"
            )
    return reference, columnar


@dataclass(frozen=True)
class ShrinkResult:
    """A minimized schedule and the bookkeeping of getting there."""

    schedule: Schedule
    score: float
    target: float
    trials_used: int
    #: Events removed / receivers dropped relative to the input.
    removed_events: int
    seed: int


def shrink(
    schedule: Schedule,
    config: HuntConfig,
    seed: int,
    *,
    target: Optional[float] = None,
    budget: int = 400,
) -> ShrinkResult:
    """Minimize ``schedule`` while its pinned-seed score stays >= target.

    ``target`` defaults to the input schedule's own score, i.e. "still
    reproduces the mined worst case"; pass a lower bar (e.g. the bundled
    adversaries' best) to shrink harder.  ``budget`` caps the replay
    count; on exhaustion the best reduction so far is returned.
    """
    objective = as_objective(config.objective)
    used = 0

    def score_of(candidate: Schedule) -> float:
        nonlocal used
        used += 1
        return objective.score(replay(candidate, config, seed))

    current = schedule.canonical()
    goal = score_of(current) if target is None else target

    def interesting(candidate: Schedule) -> bool:
        return score_of(candidate) >= goal

    # Pass 1: event deletion to 1-minimality.
    changed = True
    while changed and used < budget:
        changed = False
        for index in range(len(current.events)):
            if used >= budget:
                break
            candidate = current.without_event(index)
            if candidate.events and interesting(candidate):
                current, changed = candidate, True
                break  # indices shifted; rescan from the top

    # Pass 2: receiver minimization (silent first, then one at a time).
    for index in range(len(current.events)):
        event = current.events[index]
        if event.receivers and used < budget:
            silent = current.replace_event(
                index,
                CrashEvent(event.round_no, event.victim, (), event.kind),
            )
            if interesting(silent):
                current = silent
                continue
        receivers = list(event.receivers)
        for receiver in list(receivers):
            if used >= budget:
                break
            trimmed = tuple(r for r in receivers if r != receiver)
            candidate = current.replace_event(
                index,
                CrashEvent(event.round_no, event.victim, trimmed, event.kind),
            )
            if interesting(candidate):
                current = candidate
                receivers = list(trimmed)

    # Pass 3: pull each crash to the earliest round that still works.
    # replace_event re-canonicalizes (events re-sort as rounds move), so
    # sweep to a fixpoint instead of trusting indices across an edit.
    changed = True
    while changed and used < budget:
        changed = False
        for index in range(len(current.events)):
            if used >= budget:
                break
            event = current.events[index]
            if event.round_no <= 1:
                continue
            candidate = current.replace_event(
                index,
                CrashEvent(
                    event.round_no - 1,
                    event.victim,
                    event.receivers,
                    event.kind,
                ),
            )
            if interesting(candidate):
                current, changed = candidate, True
                break  # indices may have shifted; rescan from the top

    final = objective.score(replay(current, config, seed))
    return ShrinkResult(
        schedule=current,
        score=final,
        target=goal,
        trials_used=used + 1,
        removed_events=(
            len(schedule.canonical().events) - len(current.events)
        ),
        seed=seed,
    )


def to_pytest(
    schedule: Schedule,
    config: HuntConfig,
    seed: int,
    result: TrialResult,
    *,
    note: str = "mined by repro.search",
) -> str:
    """Render a ready-to-paste regression test for a shrunk schedule."""
    crashes = ",\n        ".join(
        f"ScheduledCrash({e.round_no}, ids[{e.victim}], "
        f"receivers=[{', '.join(f'ids[{r}]' for r in e.receivers)}])"
        for e in schedule.events
        if e.kind == "crash"
    )
    omissions = ",\n        ".join(
        f"ScheduledOmission({e.round_no}, ids[{e.victim}], "
        "dropped=["
        + ", ".join(
            f"ids[{i}]"
            for i in range(schedule.n)
            if i != e.victim and i not in e.receivers
        )
        + "])"
        for e in schedule.events
        if e.kind == "omit"
    )
    # check=False: the emitted test pins whatever the hunt observed —
    # including a mined invariant violation, which default checking would
    # turn into a SpecViolation raise before the assertions run.
    kwargs = [
        f"seed={seed}",
        "adversary=ScheduledAdversary(schedule"
        + (", omissions)" if omissions else ")"),
        "check=False",
    ]
    if config.halt_on_name:
        kwargs.append("halt_on_name=True")
    if config.crash_budget is not None:
        kwargs.append(f"crash_budget={config.crash_budget}")
    call = (
        f'run_renaming(\n        "{config.algorithm}",\n'
        f"        ids,\n        {', '.join(kwargs)},\n    )"
    )
    if result.error is not None:
        # The mined behavior IS the raise: pin it as an expected failure
        # so the regression passes today and flips when the bug is fixed.
        error_type = result.error.split(":", 1)[0]
        body = (
            f"    # mined failure: {result.error.splitlines()[0]}\n"
            f"    with pytest.raises({error_type}):\n"
            f"        {call.replace(chr(10), chr(10) + '    ')}\n"
        )
    else:
        # Pin the observed name multiset shape: for a clean find this
        # reads as the usual uniqueness check; for a mined duplicate it
        # pins the violation itself.
        names = [name for _, name in result.names]
        body = (
            f"    run = {call}\n"
            f"    assert run.rounds == {result.rounds}\n"
            f"    names = list(run.names.values())\n"
            f"    assert len(names) == {len(names)}\n"
            f"    assert len(set(names)) == {len(set(names))}\n"
        )
    schedule_lines = (
        f"    schedule = [\n        {crashes},\n    ]\n"
        if crashes
        else "    schedule = []\n"
    )
    if omissions:
        schedule_lines += f"    omissions = [\n        {omissions},\n    ]\n"
    return (
        f"def test_hunt_regression_{schedule.digest}():\n"
        f'    """{note}: {config.objective} objective scored '
        f"{result.rounds} rounds at n={config.n}.\"\"\"\n"
        f"    ids = sparse_ids({config.n})\n"
        f"{schedule_lines}"
        f"{body}"
    )
