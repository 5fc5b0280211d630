"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands::

    repro list                     # show all experiments
    repro run EXP-T2 [--scale ...] # run one experiment, print its report
    repro all [--scale smoke]      # run the whole suite
    repro demo [--n 32]            # one quick renaming run, human-readable
    repro batch --algorithms ...   # run a raw scenario matrix
    repro hunt --objective rounds  # synthesize worst-case crash schedules
    repro tail --n 1024            # importance-splitting round-tail estimate

Every experiment prints the exact command reproducing it, and all
randomness flows from ``--seed``.  ``--executor process --workers K``
spreads batched sweeps, hunts and tail stages over ``K`` processes
without changing a digit of the output; each command starts at most one
pool and shares it across every call it makes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Collection, Dict, Iterable, List, NamedTuple, Optional

from repro._version import __version__
from repro.errors import ConfigurationError, ReproError
from repro.ids import sparse_ids

# Each verb imports what it runs.  `main` builds the options of the
# invoked verb only, and a verb's `add_options` takes its choices from
# the modules that own them, so `--version`, `lint` and `stats` load no
# `repro.sim` or `repro.search` module, and serial commands load no
# `multiprocessing` (only a process pool's start imports it).


def _add_executor_options(parser: argparse.ArgumentParser) -> None:
    from repro.sim.batch import EXECUTORS
    from repro.sim.kernel import KERNEL_CHOICES

    parser.add_argument(
        "--executor",
        default=None,
        choices=EXECUTORS,
        help="trial execution backend (default: serial; process when --workers > 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the process executor",
    )
    parser.add_argument(
        "--kernel",
        default="auto",
        choices=KERNEL_CHOICES,
        help="simulation kernel: auto picks the fastest exact engine per "
        "cell or tail stage (trial-stacked vectorized from 1024 "
        "ball-streams, trials x n, when numpy is installed, columnar "
        "otherwise, reference as the final fallback); "
        "reference/columnar/vectorized pin an engine and fail on runs it "
        "cannot model",
    )


def _add_monitor_option(parser: argparse.ArgumentParser) -> None:
    from repro.sim.kernel import MONITOR_MODES

    parser.add_argument(
        "--monitor",
        default="off",
        choices=MONITOR_MODES,
        help="runtime invariant monitoring: cheap = per-round flat-array "
        "predicates on any kernel (violations land in the jsonl rows), "
        "full = cheap plus the instrumented reference movement audit "
        "(pins the reference engine)",
    )


def _add_telemetry_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect per-stage wall-clock timers (seeding/twist/"
        "movement/monitor) and append a trailing telemetry record to "
        ".jsonl output; summarize with `repro stats`",
    )


def _run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment_id", help="e.g. EXP-T2")
    parser.add_argument("--scale", default="paper", choices=("smoke", "paper", "deep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        help="also write the report to this file; a .jsonl path persists "
        "the per-cell table rows as JSON lines instead",
    )
    _add_executor_options(parser)


def _all_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="smoke", choices=("smoke", "paper", "deep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        help="also write the combined report to this file; a .jsonl path "
        "persists every experiment's table rows as JSON lines instead",
    )
    _add_executor_options(parser)


def _demo_options(parser: argparse.ArgumentParser) -> None:
    from repro.sim.kernel import KERNEL_CHOICES

    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--algorithm",
        default="balls-into-leaves",
        choices=("balls-into-leaves", "early-terminating", "rank-descent", "flood"),
    )
    parser.add_argument(
        "--kernel",
        default="auto",
        choices=KERNEL_CHOICES,
        help="simulation kernel (auto = columnar fast path when supported)",
    )


def _batch_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithms",
        default="balls-into-leaves",
        help="comma-separated algorithm names",
    )
    parser.add_argument(
        "--sizes", default="32", help="comma-separated participant counts"
    )
    parser.add_argument(
        "--adversary",
        action="append",
        dest="adversaries",
        metavar="SPEC",
        help="adversary spec 'name[:key=value,...]', e.g. random:rate=0.2 "
        "(repeatable; default: none)",
    )
    parser.add_argument("--trials", type=int, default=10, help="seeds per cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        help="also write the report to this file; a .jsonl path persists "
        "one JSON row per trial instead",
    )
    parser.add_argument("--csv", help="write the per-cell table as CSV here")
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the renaming spec check per trial (fault-injection "
        "cells measure violations instead of raising on the first one)",
    )
    parser.add_argument(
        "--capture-errors",
        action="store_true",
        help="record simulation/spec failures as per-trial error rows "
        "instead of aborting the batch",
    )
    _add_executor_options(parser)
    _add_monitor_option(parser)
    _add_telemetry_option(parser)


def _hunt_options(parser: argparse.ArgumentParser) -> None:
    from repro.search.objectives import OBJECTIVES
    from repro.search.strategies import FAULT_FAMILY_CHOICES, STRATEGIES
    from repro.sim.runner import ALGORITHMS

    parser.add_argument(
        "--objective",
        default="rounds",
        choices=sorted(OBJECTIVES),
        help="what the search maximizes (higher = worse for the algorithm)",
    )
    parser.add_argument(
        "--strategy",
        default="hillclimb",
        choices=sorted(STRATEGIES),
        help="search strategy over the schedule genotype",
    )
    parser.add_argument(
        "--budget", type=int, default=200, help="trial evaluations to spend"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--algorithm",
        default="balls-into-leaves",
        choices=sorted(ALGORITHMS),
    )
    parser.add_argument("--n", type=int, default=16, help="cell size")
    parser.add_argument(
        "--halt-on-name",
        action="store_true",
        help="hunt under the per-ball termination extension",
    )
    parser.add_argument(
        "--crash-budget", type=int, default=None, help="the model's t (default n-1)"
    )
    parser.add_argument(
        "--fault-family",
        default="crash",
        choices=FAULT_FAMILY_CHOICES,
        help="genotype fault vocabulary: crash events only, omission "
        "(link-drop) events only, or a mixed schedule of both; the "
        "baseline gauntlet follows the family",
    )
    parser.add_argument(
        "--seeds-per-schedule",
        type=int,
        default=1,
        help="trials per candidate; its score is the max over them",
    )
    parser.add_argument(
        "--max-crashes", type=int, default=None, help="genotype crash-count cap"
    )
    parser.add_argument(
        "--max-round", type=int, default=None, help="genotype round horizon"
    )
    parser.add_argument(
        "--baseline-trials",
        type=int,
        default=5,
        help="seeds per bundled adversary in the comparison baseline",
    )
    parser.add_argument(
        "--top", type=int, default=3, help="distinct hunted schedules to report"
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging minimization of the best schedule",
    )
    parser.add_argument(
        "--out",
        help="also write the report to this file; a .jsonl path persists "
        "one JSON row per evaluated schedule instead (byte-identical on "
        "every executor)",
    )
    parser.add_argument(
        "--scenario-out",
        default=None,
        metavar="PATH",
        help="where to write the winning schedule's scenario file "
        "(default: hunt-scenario-<digest>.json in the current "
        "directory); its cheap trace lands alongside as "
        "trace-<digest>.jsonl",
    )
    parser.add_argument(
        "--no-scenario",
        action="store_true",
        help="skip writing the scenario + trace files for the winner",
    )
    _add_executor_options(parser)
    _add_monitor_option(parser)
    _add_telemetry_option(parser)


def _tail_options(parser: argparse.ArgumentParser) -> None:
    from repro.sim.runner import ALGORITHMS

    parser.add_argument("--n", type=int, default=1024, help="cell size")
    parser.add_argument(
        "--algorithm",
        default="balls-into-leaves",
        choices=sorted(name for name, p in ALGORITHMS.items() if p is not None),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trials", type=int, default=256, help="trials per splitting stage"
    )
    parser.add_argument(
        "--k-min", type=int, default=2, help="first level, in loglog units"
    )
    parser.add_argument(
        "--k-max", type=int, default=5, help="last level, in loglog units"
    )
    parser.add_argument(
        "--levels",
        default=None,
        help="explicit comma-separated absolute round levels "
        "(overrides --k-min/--k-max)",
    )
    parser.add_argument(
        "--halt-on-name",
        action="store_true",
        help="estimate under the per-ball termination extension",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=64,
        help="trials per work unit (fixed regardless of executor, so "
        "parallel runs replay the serial schedule)",
    )
    parser.add_argument(
        "--growth",
        type=float,
        default=1.0,
        help="per-stage population growth factor; the conditional factors "
        "decay with depth, so growth > 1 keeps deep (cheap, two-round) "
        "stages from going extinct",
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        default=65536,
        help="hard cap on any single stage's population",
    )
    parser.add_argument(
        "--out",
        help="also write the report to this file; a .jsonl path persists "
        "one JSON row per stage plus the final estimate instead",
    )
    _add_executor_options(parser)


def _lint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json"),
        help="report format",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--out", help="also write the report to this file"
    )


def _explore_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        help="scenario JSON file (`repro hunt` writes one for its "
        "winner; hand-editable — the schedule block is authoritative)",
    )
    parser.add_argument(
        "--out",
        help="HTML output path (default: timeline-<digest>.html)",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="re-execute the (possibly hand-edited) scenario instead of "
        "reading its stored trace, certify reference/columnar byte-"
        "identity when a schedule is present, and diff the outcome "
        "against the recorded meta block",
    )


def _stats_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "files",
        nargs="+",
        help="jsonl files written via --out rows.jsonl",
    )
    parser.add_argument(
        "--out", help="also write the summary to this file"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.registry import all_experiments

    for entry in all_experiments():
        print(f"{entry.experiment_id:<10} {entry.title}")
    return 0


def _is_jsonl(out: Optional[str]) -> bool:
    return bool(out) and out.endswith(".jsonl")


def _write_jsonl(path: str, rows: Iterable[dict]) -> int:
    """Write one compact JSON object per line; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")
            count += 1
    return count


def _experiment_rows(results, kernel: str = "auto") -> Iterable[dict]:
    """Per-cell rows of every table of every experiment result.

    ``kernel`` records the engine-selection mode the sweep ran under, so
    bench artifacts written via ``--out`` carry their execution
    provenance (per-trial resolved kernels appear in ``batch`` rows,
    which are trial-granular).  An experiment that takes no kernel ran
    under ``auto`` whatever was pinned, and its rows say so.
    """
    from repro.experiments.registry import get_experiment

    for result in results:
        ran_under = (
            kernel if get_experiment(result.experiment_id).kernel_aware else "auto"
        )
        for table in result.tables:
            for row in table.row_dicts():
                yield {
                    "experiment": result.experiment_id,
                    "scale": result.scale,
                    "table": table.title,
                    "kernel": ran_under,
                    **row,
                }


def _emit(report: str, out: Optional[str], jsonl_rows=None) -> None:
    """Print the report; persist to ``out`` (JSONL rows for .jsonl paths)."""
    print(report)
    if not out:
        return
    if _is_jsonl(out) and jsonl_rows is not None:
        count = _write_jsonl(out, jsonl_rows)
        print(f"[{count} JSONL rows written to {out}]", file=sys.stderr)
        return
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(report + "\n")
    print(f"[written to {out}]", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment
    from repro.sim.batch import as_executor

    with as_executor(args.executor, workers=args.workers) as executor:
        result = run_experiment(
            args.experiment_id,
            scale=args.scale,
            seed=args.seed,
            executor=executor,
            kernel=args.kernel,
        )
    _emit(result.render(), args.out, jsonl_rows=_experiment_rows([result], args.kernel))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.experiments.registry import all_experiments, run_experiment
    from repro.sim.batch import as_executor

    # Resolved once, before the first experiment: a bad --workers fails
    # here even though only the batched experiments use the executor,
    # and every experiment shares its one pool.
    results = []
    with as_executor(args.executor, workers=args.workers) as executor:
        for entry in all_experiments():
            print(f"... running {entry.experiment_id}", file=sys.stderr)
            results.append(
                run_experiment(
                    entry.experiment_id,
                    scale=args.scale,
                    seed=args.seed,
                    executor=executor,
                    kernel=args.kernel,
                )
            )
    _emit(
        "\n\n".join(result.render() for result in results),
        args.out,
        jsonl_rows=_experiment_rows(results, args.kernel),
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.sim.runner import run_renaming

    if args.n < 1:
        raise ConfigurationError(f"--n must be >= 1, got {args.n}")
    run = run_renaming(
        args.algorithm, sparse_ids(args.n), seed=args.seed, kernel=args.kernel
    )
    print(
        f"{args.algorithm}: renamed n={args.n} processes in {run.rounds} rounds "
        f"({run.kernel} kernel)"
    )
    shown = sorted(run.names.items())[:8]
    for pid, name in shown:
        print(f"  original id {pid} -> name {name}")
    if len(run.names) > len(shown):
        print(f"  ... and {len(run.names) - len(shown)} more")
    return 0


def _parse_sizes(raw: str) -> List[int]:
    try:
        return [int(n) for n in raw.split(",") if n.strip()]
    except ValueError:
        raise ReproError(f"--sizes must be comma-separated integers, got {raw!r}") from None


def _telemetry_row(
    elapsed: Optional[float] = None, executor: Optional[str] = None
) -> dict:
    """The trailing jsonl record ``--telemetry`` appends (see `repro stats`)."""
    from repro.core.instrumentation import TIMERS

    row = {"kind": "telemetry", "stages": TIMERS.snapshot()}
    if elapsed is not None:
        row["elapsed"] = elapsed
    if executor is not None:
        row["executor"] = executor
    return row


def _print_telemetry(
    elapsed: Optional[float] = None, executor: Optional[str] = None
) -> None:
    from repro.analysis.runstats import telemetry_table

    print(
        telemetry_table([_telemetry_row(elapsed, executor)]).render(),
        file=sys.stderr,
        end="",
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.sim.batch import ScenarioMatrix, as_executor, run_batch

    matrix = ScenarioMatrix.build(
        [name.strip() for name in args.algorithms.split(",") if name.strip()],
        _parse_sizes(args.sizes),
        args.adversaries or ["none"],
        trials=args.trials,
        base_seed=args.seed,
        check=not args.no_check,
        capture_errors=args.capture_errors,
        kernel=args.kernel,
        monitor=args.monitor,
    )
    with as_executor(args.executor, workers=args.workers) as executor:
        batch = run_batch(matrix, executor=executor)
    table = batch.to_table(
        f"scenario matrix: {len(matrix)} trials "
        f"({len(matrix.algorithms)} algorithms x {len(matrix.sizes)} sizes "
        f"x {len(matrix.adversaries)} adversaries x {matrix.trials} seeds)"
    )
    rows: Iterable[dict] = (trial.to_row() for trial in batch.trials)
    if args.telemetry:
        import itertools

        rows = itertools.chain(
            rows, [_telemetry_row(batch.elapsed, batch.executor)]
        )
    _emit(table.render(), args.out, jsonl_rows=rows)
    if args.telemetry:
        _print_telemetry(batch.elapsed, batch.executor)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(table.to_csv())
        print(f"[csv written to {args.csv}]", file=sys.stderr)
    print(
        f"ran {len(batch)} trials via the {batch.executor} executor "
        f"in {batch.elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_hunt(args: argparse.Namespace) -> int:
    from repro.analysis.worst_case import beats_every_bundled, worst_case_table
    from repro.errors import KernelUnsupported
    from repro.search.baseline import evaluate_bundled, hunt_entry
    from repro.search.shrink import replay_identical, shrink, to_pytest
    from repro.search.strategies import HuntConfig, run_hunt
    from repro.sim.batch import as_executor

    if args.baseline_trials < 1:
        raise ReproError(
            f"--baseline-trials must be >= 1, got {args.baseline_trials}"
        )
    if args.top < 1:
        raise ConfigurationError(f"--top must be >= 1, got {args.top}")
    config = HuntConfig(
        algorithm=args.algorithm,
        n=args.n,
        objective=args.objective,
        budget=args.budget,
        seed=args.seed,
        seeds_per_schedule=args.seeds_per_schedule,
        halt_on_name=args.halt_on_name,
        crash_budget=args.crash_budget,
        max_crashes=args.max_crashes,
        max_round=args.max_round,
        kernel=args.kernel,
        monitor=args.monitor,
        fault_family=args.fault_family,
    )
    with as_executor(args.executor, workers=args.workers) as executor:
        result = run_hunt(config, args.strategy, executor=executor)
        baseline = evaluate_bundled(
            config, trials=args.baseline_trials, executor=executor
        )
    entries = [hunt_entry(e) for e in result.top(args.top)] + baseline
    cell = f"{config.algorithm} n={config.n}"
    report = [
        f"hunt: {args.strategy} strategy, {len(result.evaluations)} schedules "
        f"evaluated (budget {config.budget}, seed {config.seed})",
        "",
        worst_case_table(cell, config.objective, entries).render(),
    ]

    best = result.best
    winner_schedule, winner_seed = best.schedule, best.best_result.spec.seed
    report.append("")
    report.append(
        f"worst schedule {best.schedule.digest}: score {best.score:g}, "
        f"{best.schedule.crashes} crash(es), trial seed {best.best_result.spec.seed}"
    )
    report.append(f"  genotype: {best.schedule.to_json()}")
    if not args.no_shrink:
        shrunk = shrink(best.schedule, config, best.best_result.spec.seed)
        winner_schedule, winner_seed = shrunk.schedule, shrunk.seed
        report.append(
            f"shrunk to {shrunk.schedule.crashes} crash(es) "
            f"(score {shrunk.score:g}, {shrunk.trials_used} replays): "
            f"{shrunk.schedule.to_json()}"
        )
        try:
            reference, _ = replay_identical(shrunk.schedule, config, shrunk.seed)
            report.append(
                "replay: bit-identical on the reference and columnar kernels"
            )
            report.append("")
            report.append("ready-to-paste regression:")
            report.append(
                to_pytest(shrunk.schedule, config, shrunk.seed, reference)
            )
        except KernelUnsupported as error:
            report.append(f"replay: columnar kernel not applicable ({error.reason})")
    scenario_path = None
    if not args.no_scenario:
        scenario_path = _write_hunt_scenario(
            args, config, winner_schedule, winner_seed
        )
    repro_cmd = (
        "python -m repro hunt"
        f" --objective {config.objective} --strategy {args.strategy}"
        f" --seed {config.seed} --budget {config.budget}"
        f" --algorithm {config.algorithm} --n {config.n}"
        f" --baseline-trials {args.baseline_trials}"
    )
    if config.fault_family != "crash":
        repro_cmd += f" --fault-family {config.fault_family}"
    if config.halt_on_name:
        repro_cmd += " --halt-on-name"
    if config.crash_budget is not None:
        repro_cmd += f" --crash-budget {config.crash_budget}"
    if config.seeds_per_schedule != 1:
        repro_cmd += f" --seeds-per-schedule {config.seeds_per_schedule}"
    if config.max_crashes is not None:
        repro_cmd += f" --max-crashes {config.max_crashes}"
    if config.max_round is not None:
        repro_cmd += f" --max-round {config.max_round}"
    if config.monitor != "off":
        repro_cmd += f" --monitor {config.monitor}"
    if args.no_shrink:
        repro_cmd += " --no-shrink"
    report.append(f"reproduce with: {repro_cmd}")
    if scenario_path is not None:
        report.append(
            f"  scenario file: {scenario_path} "
            f"(render with: python -m repro explore {scenario_path})"
        )
    rows: Iterable[dict] = result.rows()
    if args.telemetry:
        import itertools

        rows = itertools.chain(rows, [_telemetry_row()])
    _emit("\n".join(report), args.out, jsonl_rows=rows)
    if args.telemetry:
        _print_telemetry()
    if beats_every_bundled(entries):
        print(
            "the synthesized schedule beats every bundled adversary",
            file=sys.stderr,
        )
    return 0


def _write_hunt_scenario(args, config, schedule, seed) -> str:
    """Replay the hunt winner with a cheap trace and persist both files.

    Writes ``hunt-scenario-<digest>.json`` (or ``--scenario-out``) plus
    the content-addressed ``trace-<digest>.jsonl`` alongside it, and
    returns the scenario path for the report footer.
    """
    import os

    from repro.search.scenario import (
        Scenario,
        scenario_filename,
        write_scenario,
    )
    from repro.sim.batch import run_trial
    from repro.sim.trace import trace_filename, write_trace

    spec = config.trial_spec(schedule.spec(), seed, trace="cheap")
    result = run_trial(spec)
    digest = spec.digest()
    scenario_path = args.scenario_out or scenario_filename(
        digest, prefix="hunt-scenario"
    )
    directory = os.path.dirname(os.path.abspath(scenario_path))
    trace_name = None
    if result.trace is not None:
        trace_name = trace_filename(digest)
        write_trace(
            result.trace,
            os.path.join(directory, trace_name),
            digest=digest,
            meta={
                "algorithm": config.algorithm,
                "n": config.n,
                "seed": seed,
                "schedule": schedule.digest,
            },
        )
    scenario = Scenario.from_trial(
        spec,
        result,
        schedule=schedule,
        trace_path=trace_name,
        objective=config.objective,
    )
    write_scenario(scenario, scenario_path)
    return scenario_path


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.monitor.splitting import TailConfig, default_levels, run_tail
    from repro.sim.batch import as_executor

    if args.levels:
        try:
            levels = tuple(
                int(level) for level in args.levels.split(",") if level.strip()
            )
        except ValueError:
            raise ReproError(
                f"--levels must be comma-separated integers, got {args.levels!r}"
            ) from None
    else:
        levels = default_levels(args.n, args.k_min, args.k_max)
    config = TailConfig(
        n=args.n,
        algorithm=args.algorithm,
        seed=args.seed,
        trials=args.trials,
        levels=levels,
        halt_on_name=args.halt_on_name,
        kernel=args.kernel,
        chunk=args.chunk,
        growth=args.growth,
        max_trials=args.max_trials,
    )
    with as_executor(args.executor, workers=args.workers) as executor:
        result = run_tail(config, executor=executor)
    repro_cmd = (
        "python -m repro tail"
        f" --n {config.n} --algorithm {config.algorithm}"
        f" --seed {config.seed} --trials {config.trials}"
        f" --levels {','.join(str(level) for level in config.levels)}"
        f" --chunk {config.chunk}"
        f" --growth {config.growth} --max-trials {config.max_trials}"
    )
    if config.halt_on_name:
        repro_cmd += " --halt-on-name"
    _emit(
        result.render() + f"\nreproduce with: {repro_cmd}",
        args.out,
        jsonl_rows=result.rows(),
    )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    import dataclasses
    import os

    from repro.analysis.timeline import render_timeline
    from repro.errors import KernelUnsupported
    from repro.search.scenario import load_scenario
    from repro.sim.trace import read_trace

    scenario = load_scenario(args.scenario)
    spec = scenario.spec
    digest = spec.digest()
    trace = None
    source = ""
    if not args.replay and scenario.trace_path:
        trace_path = scenario.trace_path
        if not os.path.isabs(trace_path):
            trace_path = os.path.join(
                os.path.dirname(os.path.abspath(args.scenario)), trace_path
            )
        if os.path.exists(trace_path):
            header, stored = read_trace(trace_path)
            recorded = header.get("digest") or None
            pointer = scenario.trace_digest
            if recorded and pointer and pointer != recorded:
                # The pointer and the file it names disagree, so one of
                # them was edited: neither can be trusted to describe
                # the other.
                raise ReproError(
                    f"{scenario.trace_path} records digest {recorded}, but "
                    f"the scenario's trace.digest is {pointer}"
                )
            if recorded in (None, digest):
                trace, source = stored, f"stored trace {scenario.trace_path}"
            else:
                # The schedule was edited after the trace was captured
                # (the spec digest moved): fall through to a fresh replay
                # so the timeline shows the *edited* execution.
                print(
                    f"note: {scenario.trace_path} is for digest "
                    f"{recorded}, scenario is {digest}; "
                    "replaying instead",
                    file=sys.stderr,
                )
        else:
            print(
                f"note: {scenario.trace_path} not found; replaying instead",
                file=sys.stderr,
            )
    if trace is None:
        # Only a replay loads the trial engine: a stored trace is read.
        from repro.sim.batch import run_trial

        replay_spec = dataclasses.replace(
            spec, trace="cheap", capture_errors=True
        )
        result = run_trial(replay_spec)
        trace, source = result.trace, f"replayed on the {result.kernel} kernel"
        if trace is None:
            raise ReproError(
                "replay recorded no trace (the run failed before its "
                f"first round): {result.error}"
            )
        for key, label in (("rounds", "rounds"), ("error", "error")):
            expected = scenario.meta.get(key)
            observed = getattr(result, key)
            if expected is not None and expected != observed:
                print(
                    f"meta mismatch: recorded {label}={expected!r}, "
                    f"replay observed {observed!r} "
                    "(expected after a hand-edit)",
                    file=sys.stderr,
                )
    if args.replay and scenario.schedule is not None:
        from repro.search.shrink import replay_identical
        from repro.search.strategies import HuntConfig

        config = HuntConfig(
            algorithm=spec.algorithm,
            n=spec.n,
            seed=spec.seed,
            halt_on_name=spec.halt_on_name,
            crash_budget=spec.crash_budget,
        )
        try:
            replay_identical(scenario.schedule, config, spec.seed)
            print(
                "replay: bit-identical on the reference and columnar kernels",
                file=sys.stderr,
            )
        except KernelUnsupported as error:
            print(
                f"replay: columnar kernel not applicable ({error.reason})",
                file=sys.stderr,
            )
    html = render_timeline(
        trace,
        title=(
            f"{spec.algorithm} n={spec.n} seed={spec.seed} "
            f"[{spec.adversary.key}]"
        ),
        participants=list(sparse_ids(spec.n)),
        meta={**scenario.meta, "digest": digest, "source": source},
    )
    out = args.out or f"timeline-{digest}.html"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(f"timeline written to {out} ({source})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.runstats import render_stats

    _emit(render_stats(args.files), args.out)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here so the analyzer costs nothing on simulation verbs.
    from repro.lint import all_rules, lint_paths, render_report, render_rules
    from repro.lint.engine import iter_python_files
    from repro.lint.report import EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS

    rules = all_rules()
    if args.rules:
        print(render_rules(rules))
        return EXIT_CLEAN
    if args.select:
        wanted = {part.strip() for part in args.select.split(",") if part.strip()}
        known = {rule.rule_id for rule in rules}
        unknown = sorted(wanted - known)
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        rules = tuple(rule for rule in rules if rule.rule_id in wanted)
    files = list(iter_python_files(args.paths))
    violations = lint_paths(args.paths, rules=rules)
    report = render_report(
        violations, files_checked=len(files), fmt=args.fmt
    )
    _emit(report, args.out)
    return EXIT_VIOLATIONS if violations else EXIT_CLEAN


class Verb(NamedTuple):
    """One subcommand: its help line, its options and what it runs."""

    help: str
    add_options: Optional[Callable[[argparse.ArgumentParser], None]]
    run: Callable[[argparse.Namespace], int]


#: Every verb, in the order ``repro --help`` lists them.
VERBS: Dict[str, Verb] = {
    "list": Verb("list the experiment suite", None, _cmd_list),
    "run": Verb("run one experiment", _run_options, _cmd_run),
    "all": Verb("run every experiment", _all_options, _cmd_all),
    "demo": Verb("one quick renaming run", _demo_options, _cmd_demo),
    "batch": Verb(
        "run a raw algorithm x adversary x n x seed matrix",
        _batch_options,
        _cmd_batch,
    ),
    "hunt": Verb(
        "search crash-schedule space for worst-case executions "
        "(adversary synthesis / counterexample mining)",
        _hunt_options,
        _cmd_hunt,
    ),
    "tail": Verb(
        "estimate the round-count tail P(rounds > k*ceil(loglog n)) "
        "by multilevel importance splitting",
        _tail_options,
        _cmd_tail,
    ),
    "lint": Verb(
        "run the determinism & kernel-parity static analyzer "
        "(the tier-1 CI gate; see LINTING.md)",
        _lint_options,
        _cmd_lint,
    ),
    "explore": Verb(
        "render a scenario's execution as a self-contained HTML "
        "process-lane timeline (rounds x processes, crash/omit/name/"
        "halt markers)",
        _explore_options,
        _cmd_explore,
    ),
    "stats": Verb(
        "summarize persisted .jsonl runs: per-cell trial rows plus "
        "the --telemetry stage timers",
        _stats_options,
        _cmd_stats,
    ),
}


def _build_parser(verbs: Collection[str]) -> argparse.ArgumentParser:
    """The ``repro`` parser with every verb registered and the options of
    the ``verbs`` given (building them imports what owns their choices)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Balls-into-Leaves (PODC 2014) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        verb_parser = sub.add_parser(name, help=verb.help)
        if name in verbs and verb.add_options is not None:
            verb.add_options(verb_parser)
    return parser


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """Parse ``argv`` with only the invoked verb's options built.

    No top-level option takes a value, so the first argument that is not
    an option names the verb (or an unknown one, which argparse rejects
    listing every verb)."""
    invoked = [arg for arg in argv if not arg.startswith("-")][:1]
    return _build_parser(invoked).parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if getattr(args, "telemetry", False):
        from repro.core.instrumentation import TIMERS

        TIMERS.enable()
    try:
        return VERBS[args.command].run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream pager closed early (`repro lint --rules | head`).
        # Point stdout at devnull so the interpreter's flush-at-exit does
        # not raise the same error again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
