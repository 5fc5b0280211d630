"""The search genotype: a serializable, index-based fault schedule.

A :class:`Schedule` is the unit the search strategies mutate, serialize,
and replay: a population size ``n`` plus a tuple of :class:`CrashEvent`
entries, each naming a round, a victim, a kind (``"crash"`` or a
one-round ``"omit"`` mask), and the subset of receivers that still get
the victim's broadcast.  Victims and receivers are *positional indices*
into the participant list rather than concrete process ids, so a
schedule is a pure value — JSON-serializable, hashable, independent of
the id scheme — and one genotype describes the same adversary behavior
on every replay.

Compilation targets the scripted adversary: :meth:`Schedule.compile`
maps indices to ids and returns a columnar-certified
:class:`~repro.adversary.scheduled.ScheduledAdversary` (one shared
predicate, :mod:`repro.adversary.certification`), which declares the
omission family only when the genotype carries omit events — so
crash-only genotypes keep stacking on the vectorized crash engine
without the search layer re-declaring eligibility.
:meth:`Schedule.spec` wraps the same value as a picklable
:class:`~repro.sim.specs.AdversarySpec` (builder name ``"schedule"``),
which is how schedules ride :class:`~repro.sim.specs.TrialSpec` through
the batch executors.  Only :meth:`Schedule.compile` imports the
adversary layer, so decoding a schedule from a stored scenario loads no
adversary module.

Robustness is inherited from the simulator: events naming dead victims
or rounds past termination are clamped/ignored by the engine's own plan
validation, so *every* genotype is viable and mutation operators never
need repair logic beyond :meth:`canonical` normalization.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.ids import ProcessId
from repro.sim.specs import AdversarySpec

if TYPE_CHECKING:
    from repro.adversary.scheduled import ScheduledAdversary

#: Event kinds a genotype may carry: ``"crash"`` kills the victim in its
#: round, ``"omit"`` masks the victim's broadcast for that one round
#: without killing it.  Both reuse the ``receivers`` field as "who still
#: hears the broadcast" (empty tuple = fully silent).
EVENT_KINDS = ("crash", "omit")

#: How :func:`expect` names each JSON type in its errors.
_TYPE_NAMES = {
    int: "an integer",
    str: "a string",
    bool: "a boolean",
    dict: "an object",
    list: "a list",
}


def expect(value: Any, kind: type, field: str, *, optional: bool = False) -> Any:
    """``value``, checked to be of JSON type ``kind`` (None passes when
    ``optional``); otherwise a :class:`ConfigurationError` naming
    ``field``.

    Schedule and scenario documents are edited by hand, so their
    decoders check every field before using it.  A ``bool`` is not an
    integer here, and a tuple counts as a list (the
    :meth:`Schedule.spec` parameter encoding).
    """
    if value is None and optional:
        return None
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is list:
        ok = isinstance(value, (list, tuple))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigurationError(
            f"{field} must be {_TYPE_NAMES[kind]}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class CrashEvent:
    """Fault ``victim`` in ``round_no``; ``receivers`` still hear its
    broadcast that round (empty tuple = silent).  ``kind="crash"`` kills
    the victim permanently; ``kind="omit"`` masks one round's links and
    leaves the victim alive."""

    round_no: int
    victim: int
    receivers: Tuple[int, ...] = ()
    kind: str = "crash"

    def canonical(self, n: int) -> "CrashEvent":
        """Sorted, deduplicated, in-range receivers excluding the victim."""
        receivers = tuple(
            sorted({r for r in self.receivers if 0 <= r < n and r != self.victim})
        )
        return replace(self, receivers=receivers)

    def validate(self, n: int) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown event kind {self.kind!r}; choose from {EVENT_KINDS}"
            )
        if self.round_no < 1:
            raise ConfigurationError(
                f"{self.kind} rounds start at 1, got {self.round_no}"
            )
        if not 0 <= self.victim < n:
            raise ConfigurationError(
                f"victim index {self.victim} out of range for n={n}"
            )

    def to_tuple(self) -> Tuple:
        """Crash events keep the historical 3-tuple encoding (stable
        digests); other kinds append the kind as a 4th element."""
        if self.kind == "crash":
            return (self.round_no, self.victim, tuple(self.receivers))
        return (self.round_no, self.victim, tuple(self.receivers), self.kind)


@dataclass(frozen=True)
class Schedule:
    """An adversary genotype: ``n`` participants, crash events by index."""

    n: int
    events: Tuple[CrashEvent, ...] = ()

    # ------------------------------------------------------------ construction
    @classmethod
    def of(cls, n: int, events: Sequence[CrashEvent] = ()) -> "Schedule":
        """Validate, canonicalize, and order a genotype.

        Events are sorted by (round, victim); a victim appearing more
        than once keeps only its earliest event (a process crashes once —
        later entries could never fire).
        """
        if n < 1:
            raise ConfigurationError(f"a schedule needs n >= 1, got {n}")
        # A victim crashes once, so crash events dedup on the victim
        # alone; omissions are per-round masks, so one victim may carry
        # one omit event per round.
        seen: Dict[Any, CrashEvent] = {}
        for event in sorted(events, key=lambda e: (e.round_no, e.victim, e.kind)):
            event.validate(n)
            key = (
                event.victim
                if event.kind == "crash"
                else (event.kind, event.victim, event.round_no)
            )
            seen.setdefault(key, event.canonical(n))
        ordered = tuple(
            sorted(seen.values(), key=lambda e: (e.round_no, e.victim, e.kind))
        )
        return cls(n=n, events=ordered)

    def canonical(self) -> "Schedule":
        """The normalized form of this genotype (idempotent)."""
        return Schedule.of(self.n, self.events)

    # -------------------------------------------------------------- mutation ops
    def with_event(self, event: CrashEvent) -> "Schedule":
        """This schedule plus one event (canonicalized)."""
        return Schedule.of(self.n, self.events + (event,))

    def without_event(self, index: int) -> "Schedule":
        """This schedule minus the event at ``index``."""
        kept = self.events[:index] + self.events[index + 1 :]
        return Schedule.of(self.n, kept)

    def replace_event(self, index: int, event: CrashEvent) -> "Schedule":
        """This schedule with the event at ``index`` swapped out."""
        kept = self.events[:index] + (event,) + self.events[index + 1 :]
        return Schedule.of(self.n, kept)

    # ---------------------------------------------------------- identity / io
    @property
    def crashes(self) -> int:
        """Number of scheduled crash events."""
        return sum(1 for e in self.events if e.kind == "crash")

    @property
    def omits(self) -> int:
        """Number of scheduled one-round omission events."""
        return sum(1 for e in self.events if e.kind == "omit")

    @property
    def digest(self) -> str:
        """A short stable content hash (dedup keys, labels, filenames)."""
        material = repr((self.n, tuple(e.to_tuple() for e in self.events)))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:10]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding (inverse of :meth:`from_dict`)."""
        return {
            "n": self.n,
            "events": [
                [e.round_no, e.victim, list(e.receivers)]
                if e.kind == "crash"
                else [e.round_no, e.victim, list(e.receivers), e.kind]
                for e in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schedule":
        expect(data, dict, "schedule")
        entries = expect(data.get("events", []), list, "schedule.events")
        events = [
            _decode_event(entry, f"schedule.events[{i}]")
            for i, entry in enumerate(entries)
        ]
        return cls.of(expect(data.get("n"), int, "schedule.n"), events)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------- compilation
    def compile(self, ids: Sequence[ProcessId]) -> ScheduledAdversary:
        """Bind indices to ``ids`` (positionally) and return the scripted
        :class:`~repro.adversary.scheduled.ScheduledAdversary`.

        The result is columnar-certified — asserted here against the one
        shared predicate so a regression in the certification plumbing
        fails loudly at compile time, not as a silent fast-path fallback.
        The adversary layer is imported here, its only user, so decoding
        a schedule (a stored scenario) never loads it.
        """
        from repro.adversary.certification import certification_failure
        from repro.adversary.scheduled import (
            ScheduledAdversary,
            ScheduledCrash,
            ScheduledOmission,
        )

        if len(ids) != self.n:
            raise ConfigurationError(
                f"schedule is for n={self.n}, got {len(ids)} ids"
            )
        ordered = list(ids)
        crashes = [
            ScheduledCrash(
                e.round_no,
                ordered[e.victim],
                receivers=[ordered[r] for r in e.receivers],
            )
            for e in self.events
            if e.kind == "crash"
        ]
        omissions = [
            ScheduledOmission(
                e.round_no,
                ordered[e.victim],
                dropped=[
                    ordered[i]
                    for i in range(self.n)
                    if i != e.victim and i not in e.receivers
                ],
            )
            for e in self.events
            if e.kind == "omit"
        ]
        adversary = ScheduledAdversary(crashes, omissions)
        failure = certification_failure(
            adversary, supported=("crash", "omission")
        )
        if failure is not None:  # pragma: no cover - plumbing regression
            raise ConfigurationError(
                f"schedule compiled to an uncertified adversary: {failure}"
            )
        return adversary

    def spec(self, label: Optional[str] = None) -> AdversarySpec:
        """This schedule as a picklable :class:`AdversarySpec`."""
        return AdversarySpec.of(
            "schedule",
            label=label or f"schedule:{self.digest}",
            n=self.n,
            events=tuple(e.to_tuple() for e in self.events),
        )

    @classmethod
    def from_params(cls, *, n: int, events: Sequence = ()) -> "Schedule":
        """Decode the ``spec()`` parameter encoding (builder side)."""
        return cls.of(int(n), [_decode_event(entry) for entry in events])


def _decode_event(entry: Sequence, field: str = "event") -> CrashEvent:
    """Decode a 3-element (crash) or 4-element (kinded) event entry."""
    if len(expect(entry, list, field)) not in (3, 4):
        raise ConfigurationError(
            f"{field} must be [round, victim, receivers] or "
            f"[round, victim, receivers, kind], got {entry!r}"
        )
    r, v, receivers = entry[:3]
    kind = entry[3] if len(entry) == 4 else "crash"
    return CrashEvent(
        expect(r, int, f"{field} round"),
        expect(v, int, f"{field} victim"),
        tuple(
            expect(x, int, f"{field} receiver")
            for x in expect(receivers, list, f"{field} receivers")
        ),
        expect(kind, str, f"{field} kind"),
    )
