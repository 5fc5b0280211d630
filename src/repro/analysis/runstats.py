"""Aggregation over persisted jsonl runs: the ``repro stats`` verb.

``repro batch --out rows.jsonl`` (and ``hunt``/``tail``) persist one
JSON object per trial row, and ``--telemetry`` appends a trailing
``{"kind": "telemetry", ...}`` record with the run's per-stage timers.
This module reads those files back and summarizes them: per-cell trial
counts and round distributions, error/violation tallies, and the
telemetry stages summed across files — the quick "what did that sweep
do and where did the time go" view without re-running anything.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.stats import summarize
from repro.analysis.tables import Table
from repro.errors import ReproError


def load_rows(path: str) -> List[Dict[str, Any]]:
    """All JSON objects of one jsonl file (blank lines skipped)."""
    rows: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ReproError(
                        f"{path}:{lineno}: not valid JSON ({error.msg})"
                    ) from None
                if isinstance(row, dict):
                    rows.append(row)
    except OSError as error:
        raise ReproError(f"cannot read {path}: {error}") from None
    except UnicodeDecodeError as error:
        raise ReproError(
            f"{path}: not a UTF-8 text file ({error.reason} at byte "
            f"{error.start})"
        ) from None
    return rows


def split_telemetry(
    rows: Iterable[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """``(data_rows, telemetry_rows)`` partition of a jsonl file."""
    data: List[Dict[str, Any]] = []
    telemetry: List[Dict[str, Any]] = []
    for row in rows:
        (telemetry if row.get("kind") == "telemetry" else data).append(row)
    return data, telemetry


def _group_key(row: Dict[str, Any]) -> Tuple[str, ...]:
    """Cell coordinates of a row, using whichever keys it carries."""
    parts = []
    for key in ("experiment", "algorithm", "n", "adversary"):
        if key in row:
            parts.append(f"{key}={row[key]}")
    return tuple(parts) or ("(rows)",)


def _is_number(value: Any) -> bool:
    """Is ``value`` a finite JSON number?  Rows are edited by hand, so a
    field of any other type is skipped rather than summed."""
    return isinstance(value, (int, float)) and math.isfinite(value)


def trial_table(rows: Sequence[Dict[str, Any]]) -> Table:
    """Per-cell summary of rows that carry a numeric ``rounds`` field."""
    groups: Dict[Tuple[str, ...], List[Dict[str, Any]]] = {}
    for row in rows:
        if _is_number(row.get("rounds")):
            groups.setdefault(_group_key(row), []).append(row)
    table = Table(
        "trial rows",
        ["cell", "trials", "errors", "violations",
         "rounds mean", "rounds p95", "rounds max"],
    )
    for key in sorted(groups):
        cell_rows = groups[key]
        rounds = [float(row["rounds"]) for row in cell_rows]
        stats = summarize(rounds)
        errors = sum(1 for row in cell_rows if row.get("error"))
        violations = sum(
            len(row["violations"])
            for row in cell_rows
            if isinstance(row.get("violations"), list)
        )
        table.add_row(
            " ".join(key), len(cell_rows), errors, violations,
            stats.mean, stats.p95, stats.maximum,
        )
    return table


def telemetry_table(telemetry_rows: Sequence[Dict[str, Any]]) -> Table:
    """Per-stage timers summed across every telemetry record."""
    stages: Dict[str, Dict[str, float]] = {}
    order: List[str] = []
    for row in telemetry_rows:
        row_stages = row.get("stages")
        if not isinstance(row_stages, dict):
            continue
        for stage, stats in row_stages.items():
            if not isinstance(stats, dict):
                continue
            if stage not in stages:
                stages[stage] = {"calls": 0, "seconds": 0.0}
                order.append(stage)
            for key in ("calls", "seconds"):
                if _is_number(stats.get(key)):
                    stages[stage][key] += stats[key]
    total = sum(stats["seconds"] for stats in stages.values()) or 1.0
    table = Table(
        "telemetry stages",
        ["stage", "calls", "seconds", "share"],
        notes="wall-clock attribution of the instrumented stages; "
        "process-executor runs time the coordinating process only",
    )
    for stage in order:
        stats = stages[stage]
        table.add_row(
            stage,
            int(stats["calls"]),
            stats["seconds"],
            f"{100.0 * stats['seconds'] / total:.1f}%",
        )
    return table


def render_stats(paths: Sequence[str]) -> str:
    """The full ``repro stats`` report over one or more jsonl files."""
    sections: List[str] = []
    all_data: List[Dict[str, Any]] = []
    all_telemetry: List[Dict[str, Any]] = []
    for path in paths:
        data, telemetry = split_telemetry(load_rows(path))
        all_data.extend(data)
        all_telemetry.extend(telemetry)
        sections.append(
            f"{path}: {len(data)} data row(s), "
            f"{len(telemetry)} telemetry record(s)"
        )
    table = trial_table(all_data)
    if table.rows:
        sections.append("")
        sections.append(table.render().rstrip())
    if all_telemetry:
        sections.append("")
        sections.append(telemetry_table(all_telemetry).render().rstrip())
        elapsed = [
            row["elapsed"]
            for row in all_telemetry
            if _is_number(row.get("elapsed"))
        ]
        if elapsed:
            sections.append(f"total run elapsed: {sum(elapsed):.2f}s")
    if not table.rows and not all_telemetry:
        sections.append("no trial rows or telemetry records found")
    return "\n".join(sections)
