"""The execution timeline explorer: a trace rendered as SVG-in-HTML.

No plotting or templating libraries are available offline, so the
explorer emits a *self-contained* HTML document — inline CSS, one inline
SVG, zero JavaScript — that any browser renders as a process-lane
timeline:

* **x-axis** — rounds of the lock-step execution;
* **lanes** — one horizontal band per process (sorted by label), drawn
  while the process runs and fading out at its crash or halt round;
* **markers** — crash (red x), omission (orange o), naming (green
  diamond at the round a leaf name was decided), halt (black bar);
* **namespace band** — under the lanes, the evolving set of decided
  names per round, showing the (1+epsilon)-namespace fill in;
* **running strip** — the per-round running count from the ``round``
  events, so livelocks read as a flat non-zero tail.

Hover titles (SVG ``<title>`` elements, rendered as native tooltips)
carry the per-event detail, which keeps the document static and
reviewable as text — the acceptance path diffs explorer output in CI.

The input is any :class:`~repro.sim.trace.Trace`: a ``cheap`` trace
from either fast kernel, or a ``full`` reference trace; the renderer
consumes only the shared event schema plus the cheap-mode ``name``
extras when present, degrading gracefully when a mode lacks a kind.
"""

from __future__ import annotations

from html import escape
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.trace import Trace

#: Geometry constants (pixels).  Lane rows scale with n, the round
#: columns with the trace length; everything else is fixed chrome.
_LANE_H = 18
_ROUND_W = 14
_LEFT = 110
_TOP = 48
_STRIP_H = 56
_GAP = 26

_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       background: #fafafa; color: #222; margin: 1.5em; }
h1 { font-size: 1.1em; } h2 { font-size: 0.95em; color: #555; }
table.meta { border-collapse: collapse; font-size: 0.85em; }
table.meta td { border: 1px solid #ddd; padding: 2px 8px; }
svg { background: #fff; border: 1px solid #ddd; }
.lane-even { fill: #eef3f8; } .lane-odd { fill: #f7fafc; }
.lane-dead { fill: #f2f2f2; }
.grid { stroke: #e3e3e3; stroke-width: 1; }
.axis { font-size: 10px; fill: #666; }
.label { font-size: 11px; fill: #333; }
.crash { stroke: #c0392b; stroke-width: 2; }
.omit { stroke: #e67e22; stroke-width: 2; fill: none; }
.name { fill: #27ae60; }
.halt { fill: #222; }
.run { fill: #2c5f8a; }
.ns { fill: #8e6fae; }
"""


def _lane_index(pids: List[Any]) -> Dict[Any, int]:
    return {pid: i for i, pid in enumerate(pids)}


def _collect(trace: Trace) -> Dict[str, Any]:
    """Index the trace by kind, discovering processes and round span."""
    crashes: List[Tuple[int, Any]] = []
    omits: List[Tuple[int, Any]] = []
    names: List[Tuple[int, Any, Any]] = []
    halts: List[Tuple[int, Any, Any]] = []
    rounds: List[Tuple[int, int, int, int]] = []  # (r, sent, crashes, running)
    pids = set()
    last_round = 0
    for event in trace:
        last_round = max(last_round, event.round_no)
        kind, data = event.kind, event.data
        if kind == "crash":
            crashes.append((event.round_no, data["pid"]))
            pids.add(data["pid"])
        elif kind == "omit":
            omits.append((event.round_no, data["pid"]))
            pids.add(data["pid"])
        elif kind == "name":
            names.append((event.round_no, data["pid"], data["name"]))
            pids.add(data["pid"])
        elif kind == "halt":
            halts.append((event.round_no, data["pid"], data["decision"]))
            pids.add(data["pid"])
        elif kind == "round":
            rounds.append(
                (
                    event.round_no,
                    data["sent"],
                    data["crashes"],
                    data["running"],
                )
            )
    return {
        "crashes": crashes,
        "omits": omits,
        "names": names,
        "halts": halts,
        "rounds": rounds,
        "pids": sorted(pids, key=repr),
        "last_round": last_round,
    }


def _x(round_no: int) -> float:
    """Center of a round column (rounds are 1-based)."""
    return _LEFT + (round_no - 0.5) * _ROUND_W


def _y(lane: int) -> float:
    """Center of a lane row."""
    return _TOP + (lane + 0.5) * _LANE_H


def _svg_timeline(indexed: Dict[str, Any], participants: List[Any]) -> str:
    """The SVG document body (lanes + markers + strips)."""
    pids = participants or indexed["pids"]
    lanes = _lane_index(pids)
    last_round = max(indexed["last_round"], 1)
    ended_at: Dict[Any, int] = {}
    for r, pid in indexed["crashes"]:
        ended_at[pid] = min(r, ended_at.get(pid, r))
    for r, pid, _ in indexed["halts"]:
        ended_at[pid] = min(r, ended_at.get(pid, r))

    width = _LEFT + last_round * _ROUND_W + 20
    lanes_h = len(pids) * _LANE_H
    ns_top = _TOP + lanes_h + _GAP
    strip_top = ns_top + _STRIP_H + _GAP
    height = strip_top + _STRIP_H + 30

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width}" height="{height}" '
        f'font-family="ui-monospace, monospace">'
    ]
    # Lane backgrounds: running span in alternating blue, dead tail grey.
    for pid, lane in lanes.items():
        y0 = _TOP + lane * _LANE_H
        end = ended_at.get(pid, last_round)
        cls = "lane-even" if lane % 2 == 0 else "lane-odd"
        parts.append(
            f'<rect class="{cls}" x="{_LEFT}" y="{y0}" '
            f'width="{end * _ROUND_W}" height="{_LANE_H - 1}"/>'
        )
        if end < last_round:
            parts.append(
                f'<rect class="lane-dead" x="{_LEFT + end * _ROUND_W}" '
                f'y="{y0}" width="{(last_round - end) * _ROUND_W}" '
                f'height="{_LANE_H - 1}"/>'
            )
        parts.append(
            f'<text class="label" x="{_LEFT - 8}" y="{_y(lane) + 4}" '
            f'text-anchor="end">{escape(str(pid))}</text>'
        )
    # Round grid + axis ticks (every round if narrow, else every 5th).
    tick_every = 1 if last_round <= 30 else 5
    for r in range(1, last_round + 1):
        x = _LEFT + r * _ROUND_W
        parts.append(
            f'<line class="grid" x1="{x}" y1="{_TOP}" '
            f'x2="{x}" y2="{strip_top + _STRIP_H}"/>'
        )
        if r % tick_every == 0 or r == 1:
            parts.append(
                f'<text class="axis" x="{_x(r)}" y="{_TOP - 6}" '
                f'text-anchor="middle">{r}</text>'
            )
    parts.append(
        f'<text class="axis" x="{_LEFT}" y="{_TOP - 26}">'
        f"rounds →</text>"
    )
    # Markers.  Crash: red x.  Omit: orange circle.  Name: green diamond.
    # Halt: black bar at the lane's end.
    for r, pid in indexed["crashes"]:
        if pid not in lanes:
            continue
        x, y = _x(r), _y(lanes[pid])
        parts.append(
            f'<g><line class="crash" x1="{x - 4}" y1="{y - 4}" '
            f'x2="{x + 4}" y2="{y + 4}"/>'
            f'<line class="crash" x1="{x - 4}" y1="{y + 4}" '
            f'x2="{x + 4}" y2="{y - 4}"/>'
            f"<title>round {r}: {escape(str(pid))} crashed</title></g>"
        )
    for r, pid in indexed["omits"]:
        if pid not in lanes:
            continue
        x, y = _x(r), _y(lanes[pid])
        parts.append(
            f'<g><circle class="omit" cx="{x}" cy="{y}" r="4"/>'
            f"<title>round {r}: {escape(str(pid))} broadcast dropped"
            f"</title></g>"
        )
    for r, pid, name in indexed["names"]:
        if pid not in lanes:
            continue
        x, y = _x(r), _y(lanes[pid])
        parts.append(
            f'<g><path class="name" d="M {x} {y - 5} L {x + 5} {y} '
            f'L {x} {y + 5} L {x - 5} {y} Z"/>'
            f"<title>round {r}: {escape(str(pid))} decided name "
            f"{escape(str(name))}</title></g>"
        )
    for r, pid, decision in indexed["halts"]:
        if pid not in lanes:
            continue
        x, y = _x(r), _y(lanes[pid])
        parts.append(
            f'<g><rect class="halt" x="{x - 2}" y="{y - 7}" '
            f'width="4" height="14"/>'
            f"<title>round {r}: {escape(str(pid))} halted with name "
            f"{escape(str(decision))}</title></g>"
        )

    # Namespace band: cumulative decided-name count per round.
    named_by_round: Dict[int, int] = {}
    events = indexed["names"] or [(r, pid, d) for r, pid, d in indexed["halts"]]
    for r, _, _ in events:
        named_by_round[r] = named_by_round.get(r, 0) + 1
    total = len(pids) or 1
    parts.append(
        f'<text class="axis" x="{_LEFT - 8}" y="{ns_top + _STRIP_H / 2}" '
        f'text-anchor="end">named</text>'
    )
    cumulative = 0
    for r in range(1, last_round + 1):
        cumulative += named_by_round.get(r, 0)
        bar = _STRIP_H * cumulative / total
        parts.append(
            f'<g><rect class="ns" x="{_LEFT + (r - 1) * _ROUND_W + 1}" '
            f'y="{ns_top + _STRIP_H - bar}" '
            f'width="{_ROUND_W - 2}" height="{bar}"/>'
            f"<title>round {r}: {cumulative}/{total} named</title></g>"
        )

    # Running strip: per-round running count from the round events.
    parts.append(
        f'<text class="axis" x="{_LEFT - 8}" '
        f'y="{strip_top + _STRIP_H / 2}" text-anchor="end">running</text>'
    )
    peak = max((row[3] for row in indexed["rounds"]), default=0) or 1
    for r, sent, crash_count, running in indexed["rounds"]:
        bar = _STRIP_H * running / peak
        parts.append(
            f'<g><rect class="run" x="{_LEFT + (r - 1) * _ROUND_W + 1}" '
            f'y="{strip_top + _STRIP_H - bar}" '
            f'width="{_ROUND_W - 2}" height="{bar}"/>'
            f"<title>round {r}: {running} running, {sent} sent, "
            f"{crash_count} crashed</title></g>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _meta_table(meta: Dict[str, Any]) -> str:
    rows = "".join(
        f"<tr><td>{escape(str(key))}</td>"
        f"<td>{escape(str(meta[key]))}</td></tr>"
        for key in sorted(meta, key=str)
    )
    return f'<table class="meta">{rows}</table>' if rows else ""


def render_timeline(
    trace: Trace,
    *,
    title: str = "execution timeline",
    participants: Optional[List[Any]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Render a trace as a self-contained HTML timeline document.

    ``participants`` pins the lane set (and order is always sorted by
    repr); without it the lanes are the processes the trace mentions,
    which under-counts silent bystanders in short traces.
    """
    indexed = _collect(trace)
    lanes = sorted(participants, key=repr) if participants else indexed["pids"]
    svg = _svg_timeline(indexed, lanes)
    legend = (
        "<h2>legend: "
        '<span style="color:#c0392b">x crash</span> · '
        '<span style="color:#e67e22">o omission</span> · '
        '<span style="color:#27ae60">◆ named</span> · '
        "▍ halt · hover any marker for detail</h2>"
    )
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8">'
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{escape(title)}</h1>"
        f"{_meta_table(meta or {})}"
        f"{legend}"
        f"{svg}"
        "</body></html>\n"
    )
