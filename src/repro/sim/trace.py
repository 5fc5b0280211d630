"""Event tracing: the ``trace={off,cheap,full}`` observability knob.

Tracing is opt-in and comes in two flavours.  ``full`` is the original
reference-engine instrumentation: every message-level event the lock-step
simulator sees, recorded as the run executes — the richest stream, but it
pins the slow spec engine.  ``cheap`` is the fast-path mode: the columnar
and vectorized kernels both decode it after the run from one
:class:`~repro.sim.record.TrialRecord` (who crashed, who was silenced,
who named, who halted, per ball and round, plus the per-round aggregate
row), so sweeps and hunts can capture timelines at bounded overhead.

The two modes deliberately share a projection — :func:`shared_events`
maps any trace onto the kernel-independent event schema (``round``,
``crash``, ``omit``, ``halt``) — and the differential oracle
(``tests/test_oracle.py``) pins that a ``full`` reference trace and a
``cheap`` fast-path trace of the same run project identically.
Cheap traces additionally carry ``name`` events (ball → decided name,
with the round it was decided), outside the shared schema because the
reference engine records finer message-level events instead.  The
columnar and vectorized kernels write the same cheap trace, event for
event, because one decoder writes both.  Older trace files may also hold per-round ``pos`` snapshots;
they still load, and nothing reads them.

Traces persist as jsonl, content-addressed by the trial's spec digest:
``trace-<digest>.jsonl`` names the execution it came from, so a scenario
file can point at its trace and a re-run can verify it landed on the
same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Trace modes accepted by the runner, the batch engine, and the CLI.
#: ``off`` records nothing, ``cheap`` decodes the fast kernels' per-ball
#: and per-round record, ``full`` pins the reference engine's
#: message-level instrumentation.
TRACE_MODES = ("off", "cheap", "full")

#: Serialized trace format marker (header line of every trace file).
TRACE_FORMAT = "repro-trace/1"

#: Event kinds every tracing kernel agrees on; :func:`shared_events`
#: projects a trace of either mode onto exactly these.
SHARED_EVENT_KINDS = frozenset({"round", "crash", "omit", "halt"})


def check_trace_mode(mode: str) -> str:
    """Validate a trace mode string, returning it."""
    if mode not in TRACE_MODES:
        raise ConfigurationError(
            f"unknown trace mode {mode!r}; choose from {TRACE_MODES}"
        )
    return mode


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``kind`` is ``'round'``, ``'crash'``, ``'omit'``, ``'halt'`` (the
    shared schema) or the cheap-only ``'name'`` delta.
    """

    round_no: int
    kind: str
    data: Dict[str, Any]


class Trace:
    """An append-only list of :class:`TraceEvent` with simple filters.

    A trace may be *lazy*: constructed with a builder callable that is
    invoked (once, with the trace as its argument) the first time any
    event is read.  The stacked kernel uses this for its cheap traces —
    the per-event Python objects for a 100-trial cell are only
    built for the trials whose timeline somebody actually reads, the
    same pay-per-read contract as its scalar ``result()`` accessors.
    """

    def __init__(self, _builder: Optional[Any] = None) -> None:
        self._events: List[TraceEvent] = []
        self._builder = _builder

    def _all(self) -> List[TraceEvent]:
        """The event list, materializing a lazy trace on first read."""
        if self._builder is not None:
            builder, self._builder = self._builder, None
            builder(self)
        return self._events

    def record(self, round_no: int, kind: str, /, **data: Any) -> None:
        """Append an event; every keyword argument is event data."""
        self._all().append(TraceEvent(round_no, kind, data))

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """All events, optionally restricted to one kind."""
        if kind is None:
            return list(self._all())
        return [event for event in self._all() if event.kind == kind]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._all())

    def __len__(self) -> int:
        return len(self._all())

    def __eq__(self, other: object) -> bool:
        """Event-list equality, so results carrying traces compare by
        value across executors (the serial == multiprocessing pin)."""
        if not isinstance(other, Trace):
            return NotImplemented
        return self._all() == other._all()

    def __reduce__(self):
        """Pickle by value: a lazy trace crossing a process boundary
        materializes first (its builder closes over engine arrays that
        must not ride along)."""
        return (_trace_from_events, (self._all(),))

    # Value equality makes traces unhashable, like the lists they wrap.
    __hash__ = None  # type: ignore[assignment]


def _trace_from_events(events: List[TraceEvent]) -> Trace:
    """Rebuild a (materialized) trace from its event list (unpickling)."""
    trace = Trace()
    trace._events = list(events)
    return trace


#: One projected event: ``(round_no, kind, payload)`` where the payload
#: shape is fixed per kind (see :func:`shared_events`).
SharedEvent = Tuple[int, str, Tuple[Any, ...]]


def shared_events(trace: Trace) -> List[SharedEvent]:
    """Project a trace onto the kernel-independent event schema.

    Keeps only the :data:`SHARED_EVENT_KINDS`, normalizes each payload to
    the fields every kernel can produce — ``round`` → ``(sent, crashes,
    running)``, ``crash``/``omit`` → ``(pid,)``, ``halt`` → ``(pid,
    decision)`` — and sorts within a round so delivery-order differences
    between engines (the reference simulator walks its outbox, the
    columnar engine walks label ranks) cannot show through.  Two traces
    of the same execution project equal under this function regardless of
    which kernel and mode produced them.
    """
    rows: List[SharedEvent] = []
    for event in trace:
        if event.kind not in SHARED_EVENT_KINDS:
            continue
        if event.kind == "round":
            payload = (
                event.data["sent"],
                event.data["crashes"],
                event.data["running"],
            )
        elif event.kind == "halt":
            payload = (event.data["pid"], event.data["decision"])
        else:  # crash / omit: the shared schema carries only the victim
            payload = (event.data["pid"],)
        rows.append((event.round_no, event.kind, payload))
    rows.sort(key=lambda row: (row[0], row[1], repr(row[2])))
    return rows


# --------------------------------------------------------------- file formats


def trace_filename(digest: str) -> str:
    """Canonical content-addressed trace file name for a spec digest."""
    return f"trace-{digest}.jsonl"


def _header(digest: str, meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    header: Dict[str, Any] = {"format": TRACE_FORMAT, "digest": digest}
    if meta:
        header["meta"] = {key: meta[key] for key in sorted(meta)}
    return header


def write_trace(
    trace: Trace,
    path: str,
    *,
    digest: str = "",
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a trace as jsonl: one header line, then one event per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(_header(digest, meta), sort_keys=True))
        handle.write("\n")
        for event in trace:
            row = {"r": event.round_no, "kind": event.kind, **event.data}
            handle.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


def _json_object(path: str, lineno: int, line: str) -> Dict[str, Any]:
    """One jsonl line as a dict, or a ConfigurationError naming the line."""
    try:
        row = json.loads(line)
    except ValueError:
        row = None
    if not isinstance(row, dict):
        raise ConfigurationError(f"{path}:{lineno}: not a JSON object")
    return row


#: The fields the timeline explorer reads from each event kind;
#: :func:`read_trace` checks them so a hand-edited trace fails on its
#: line instead of inside the renderer.
_EVENT_FIELDS = {
    "crash": ("pid",),
    "omit": ("pid",),
    "name": ("pid", "name"),
    "halt": ("pid", "decision"),
    "round": ("sent", "crashes", "running"),
}


def _check_event(path: str, lineno: int, kind: str, row: Dict[str, Any]) -> None:
    """Raise a ConfigurationError naming the line for a malformed event."""
    for key in _EVENT_FIELDS.get(kind, ()):
        if key not in row:
            raise ConfigurationError(
                f"{path}:{lineno}: {kind!r} event has no {key!r} field"
            )
        value = row[key]
        if key == "pid" and type(value) not in (int, str):
            raise ConfigurationError(
                f"{path}:{lineno}: event 'pid' must be an integer or a "
                f"string, got {value!r}"
            )
        if kind == "round" and type(value) is not int:
            raise ConfigurationError(
                f"{path}:{lineno}: round event {key!r} must be an integer, "
                f"got {value!r}"
            )


def read_trace(path: str) -> Tuple[Dict[str, Any], Trace]:
    """Read a jsonl trace file back into ``(header, Trace)``.

    Trace files are edited by hand, so an unreadable or non-UTF-8 file,
    a truncated line, an event without an integer ``r`` or a string
    ``kind``, or an event missing a field the timeline reads raises
    :class:`~repro.errors.ConfigurationError` naming the file (and the
    line, where there is one).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as error:
        raise ConfigurationError(
            f"cannot read trace file {path}: {error}"
        ) from None
    except UnicodeDecodeError as error:
        raise ConfigurationError(
            f"{path}: not a UTF-8 text file ({error.reason} at byte "
            f"{error.start})"
        ) from None
    if not lines or not lines[0].strip():
        raise ConfigurationError(f"empty trace file: {path}")
    header = _json_object(path, 1, lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ConfigurationError(
            f"{path}: not a {TRACE_FORMAT} file "
            f"(format={header.get('format')!r})"
        )
    trace = Trace()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = _json_object(path, lineno, line)
        round_no = row.pop("r", None)
        kind = row.pop("kind", None)
        if type(round_no) is not int:
            raise ConfigurationError(
                f"{path}:{lineno}: event round 'r' must be an integer, "
                f"got {round_no!r}"
            )
        if not isinstance(kind, str):
            raise ConfigurationError(
                f"{path}:{lineno}: event 'kind' must be a string, got {kind!r}"
            )
        _check_event(path, lineno, kind, row)
        trace.record(round_no, kind, **row)
    return header, trace
