"""Scenario files: a mined counterexample as one round-trippable bundle.

A hunt ends with a shrunk :class:`~repro.search.schedule.Schedule`, the
trial seed it fired under, and a pile of run configuration — enough to
reproduce the find, but scattered across a jsonl footer and a pytest
snippet.  A *scenario file* packs all of it into a single JSON document:

* the full :class:`~repro.sim.specs.TrialSpec` (algorithm, n, seed,
  halt-on-name, crash budget, kernel/monitor/trace knobs),
* the fault schedule as :meth:`Schedule.to_dict` — editable by hand,
* an optional pointer to the trace file captured on the replay
  (content-addressed by the spec digest, see
  :func:`repro.sim.trace.trace_filename`),
* a free-form ``meta`` block recording what the original run observed
  (rounds, failures, error, objective score) so a replay can be checked
  against it.

Loading is deliberately schedule-first: when the document carries a
``schedule`` block, the adversary spec is rebuilt *from that block* —
not from the serialized adversary — so editing the event list in the
file (move a crash a round later, drop a receiver) and replaying is the
supported perturb-and-replay workflow.  ``repro explore --replay`` rides
exactly this path, then certifies the edited run with the same
reference-vs-columnar byte-identity check the hunt used
(:func:`repro.search.shrink.replay_identical`).

Reading a scenario runs nothing, so it loads no trial engine: the specs
come from :mod:`repro.sim.specs`, the schedule decodes without building
its adversary, and the mode checks come from :mod:`repro.sim.kernel`,
which imports no engine.  ``repro explore`` over a stored trace
therefore costs reading the two files; only a replay imports
:mod:`repro.sim.batch`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.search.schedule import Schedule, expect
from repro.sim.kernel import check_kernel_name, check_monitor_mode
from repro.sim.specs import AdversarySpec, TrialSpec
from repro.sim.trace import check_trace_mode

if TYPE_CHECKING:
    from repro.sim.batch import TrialResult

#: Serialized scenario format marker (the ``format`` key of every file).
SCENARIO_FORMAT = "repro-scenario/1"


def scenario_filename(digest: str, *, prefix: str = "scenario") -> str:
    """Canonical scenario file name for a spec digest."""
    return f"{prefix}-{digest}.json"


@dataclass(frozen=True)
class Scenario:
    """One reproducible execution: spec + schedule + trace pointer + meta."""

    spec: TrialSpec
    #: The fault schedule, when the adversary is a scripted one.  This is
    #: the authoritative copy: loading rebuilds the adversary spec from
    #: it, so hand-edits to the serialized event list take effect.
    schedule: Optional[Schedule] = None
    #: Path of the trace file captured for this execution (relative paths
    #: resolve against the scenario file's directory), or None.
    trace_path: Optional[str] = None
    #: The spec digest the trace file is content-addressed by.
    trace_digest: Optional[str] = None
    #: What the original run observed (rounds, failures, error, score...).
    meta: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_trial(
        cls,
        spec: TrialSpec,
        result: Optional[TrialResult] = None,
        *,
        schedule: Optional[Schedule] = None,
        trace_path: Optional[str] = None,
        **meta: Any,
    ) -> "Scenario":
        """Bundle a trial (and optionally its result) into a scenario.

        When ``result`` is given, its headline observations are recorded
        in ``meta`` so a later replay can be checked against them.
        """
        if result is not None:
            meta.setdefault("rounds", result.rounds)
            meta.setdefault("failures", result.failures)
            meta.setdefault("messages_sent", result.messages_sent)
            meta.setdefault("last_round_named", result.last_round_named)
            if result.error is not None:
                meta.setdefault("error", result.error)
        return cls(
            spec=spec,
            schedule=schedule,
            trace_path=trace_path,
            trace_digest=spec.digest() if trace_path else None,
            meta=meta,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding (inverse of :meth:`from_dict`)."""
        spec = self.spec
        adversary: Dict[str, Any] = {"name": spec.adversary.name}
        if spec.adversary.label is not None:
            adversary["label"] = spec.adversary.label
        if spec.adversary.name != "schedule" and spec.adversary.params:
            # Schedule params duplicate the schedule block (which is the
            # copy loading honors), so they are not serialized twice.
            adversary["params"] = dict(spec.adversary.params)
        document: Dict[str, Any] = {
            "format": SCENARIO_FORMAT,
            "spec": {
                "algorithm": spec.algorithm,
                "n": spec.n,
                "seed": spec.seed,
                "adversary": adversary,
                "halt_on_name": spec.halt_on_name,
                "crash_budget": spec.crash_budget,
                "check": spec.check,
                "kernel": spec.kernel,
                "capture_errors": spec.capture_errors,
                "monitor": spec.monitor,
                "trace": spec.trace,
                "digest": spec.digest(),
            },
            "schedule": (
                None if self.schedule is None else self.schedule.to_dict()
            ),
            "trace": (
                None
                if self.trace_path is None
                else {"path": self.trace_path, "digest": self.trace_digest}
            ),
            "meta": {key: self.meta[key] for key in sorted(self.meta)},
        }
        return document

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Decode a scenario document.

        The adversary is rebuilt from the ``schedule`` block when one is
        present — the perturb-and-replay contract: edits to the event
        list win over whatever adversary spec was serialized alongside.
        Every field is type-checked, the kernel, monitor and trace modes
        must be valid choices, and the schedule must be for the spec's
        ``n``, so a bad hand edit raises :class:`ConfigurationError`
        naming the field.
        """
        if data.get("format") != SCENARIO_FORMAT:
            raise ConfigurationError(
                f"not a {SCENARIO_FORMAT} document "
                f"(format={data.get('format')!r})"
            )
        raw_spec = data.get("spec")
        if not isinstance(raw_spec, dict):
            raise ConfigurationError("scenario document has no 'spec' block")

        def spec_field(
            key: str, kind: type, default: Any = None, optional: bool = False
        ) -> Any:
            value = raw_spec.get(key, default)
            return expect(value, kind, f"spec.{key}", optional=optional)

        def choice_field(key: str, default: str, check: Callable[[str], str]) -> str:
            value = spec_field(key, str, default)
            try:
                return check(value)
            except ConfigurationError as error:
                raise ConfigurationError(f"spec.{key}: {error}") from None

        n = spec_field("n", int)
        if n < 1:
            raise ConfigurationError(f"spec.n must be >= 1, got {n}")
        schedule = None
        raw_schedule = data.get("schedule")
        if raw_schedule is not None:
            schedule = Schedule.from_dict(raw_schedule)
            if schedule.n != n:
                raise ConfigurationError(
                    f"schedule.n={schedule.n} does not match spec.n={n}"
                )
        raw_adversary = spec_field("adversary", dict, optional=True) or {
            "name": "none"
        }
        label = expect(
            raw_adversary.get("label"), str, "spec.adversary.label", optional=True
        )
        if schedule is not None:
            if label is not None and label.startswith("schedule:"):
                # Auto-generated digest label; regenerate so a hand-edit
                # to the event list is not mislabeled with the old hash.
                label = None
            adversary = schedule.spec(label)
        else:
            name = raw_adversary.get("name", "none")
            params = raw_adversary.get("params")
            adversary = AdversarySpec.of(
                expect(name, str, "spec.adversary.name"),
                label=label,
                **(
                    expect(params, dict, "spec.adversary.params", optional=True)
                    or {}
                ),
            )
        spec = TrialSpec(
            algorithm=spec_field("algorithm", str),
            n=n,
            seed=spec_field("seed", int),
            adversary=adversary,
            halt_on_name=spec_field("halt_on_name", bool, False),
            crash_budget=spec_field("crash_budget", int, optional=True),
            check=spec_field("check", bool, True),
            kernel=choice_field("kernel", "auto", check_kernel_name),
            capture_errors=spec_field("capture_errors", bool, False),
            monitor=choice_field("monitor", "off", check_monitor_mode),
            trace=choice_field("trace", "off", check_trace_mode),
        )
        pointer = expect(data.get("trace"), dict, "trace", optional=True) or {}
        return cls(
            spec=spec,
            schedule=schedule,
            trace_path=expect(
                pointer.get("path"), str, "trace.path", optional=True
            ),
            trace_digest=expect(
                pointer.get("digest"), str, "trace.digest", optional=True
            ),
            meta=dict(expect(data.get("meta"), dict, "meta", optional=True) or {}),
        )

    def to_json(self) -> str:
        """Pretty-printed document — scenario files are meant to be edited."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


def write_scenario(scenario: Scenario, path: str) -> None:
    """Write a scenario document to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(scenario.to_json())
        handle.write("\n")


def load_scenario(path: str) -> Scenario:
    """Read a scenario document back (see :meth:`Scenario.from_dict`)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ConfigurationError(
            f"cannot read scenario file {path}: {error}"
        ) from None
    except UnicodeDecodeError as error:
        raise ConfigurationError(
            f"{path}: not a UTF-8 text file ({error.reason} at byte "
            f"{error.start})"
        ) from None
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"{path}: not valid JSON ({error})"
        ) from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return Scenario.from_dict(data)
