"""Trial and adversary specs: what one execution is, without what runs it.

A :class:`TrialSpec` names one renaming execution (algorithm, size,
seed, adversary and the kernel/monitor/trace knobs) and an
:class:`AdversarySpec` names its adversary by builder and parameters.
Both are plain frozen values — hashable, picklable, content-addressed by
:meth:`TrialSpec.digest` — so they are what scenario files store, what
hunts mutate and what the batch engine (:mod:`repro.sim.batch`) ships to
its workers.

This module imports no adversary, engine, runner or NumPy module: each
builder of :data:`ADVERSARY_BUILDERS` imports its adversary class in its
own body, so reading a stored scenario (``repro explore`` over a stored
trace) costs reading it.  The one builder table still validates names
and lists each builder's parameters in error messages.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.adversary.base import Adversary

# ----------------------------------------------------------- adversary registry

#: Adversary builders by name: ``builder(seed, **params) -> Optional[Adversary]``.
#: Builders are module-level so specs naming them stay picklable.
AdversaryBuilder = Callable[..., Optional["Adversary"]]


def _build_none(seed: int) -> Optional[Adversary]:
    return None


def _build_random(
    seed: int,
    rate: float = 0.05,
    delivery: str = "split",
    max_crashes: Optional[int] = None,
) -> Adversary:
    from repro.adversary.random_crash import RandomCrashAdversary

    return RandomCrashAdversary(rate, delivery=delivery, max_crashes=max_crashes, seed=seed)


def _build_targeted(
    seed: int, max_crashes: Optional[int] = None, every_k_phases: int = 1
) -> Adversary:
    from repro.adversary.targeted import TargetedPriorityAdversary

    return TargetedPriorityAdversary(
        max_crashes=max_crashes, every_k_phases=every_k_phases, seed=seed
    )


def _build_sandwich(
    seed: int, max_crashes: Optional[int] = None, every_k_rounds: int = 2
) -> Adversary:
    from repro.adversary.sandwich import SandwichAdversary

    return SandwichAdversary(max_crashes=max_crashes, every_k_rounds=every_k_rounds, seed=seed)


def _build_half_split(
    seed: int,
    victims_per_round: int = 1,
    max_crashes: Optional[int] = None,
    last_round: Optional[int] = None,
) -> Adversary:
    """Round-1 strike by default; ``last_round`` strikes every odd round up to it."""
    from repro.adversary.splitter import HalfSplitAdversary

    rounds = None
    if last_round is not None:
        if last_round < 1:
            raise ValueError(f"last_round must be >= 1, got {last_round}")
        rounds = frozenset({1} | set(range(3, last_round, 2)))
    return HalfSplitAdversary(
        rounds=rounds,
        victims_per_round=victims_per_round,
        max_crashes=max_crashes,
        seed=seed,
    )


def _build_schedule(seed: int, n: int = 0, events: Tuple = ()) -> Adversary:
    """A searched fault schedule (:mod:`repro.search.schedule`), bound to
    the trial's ``sparse_ids(n)`` population — the builder lives here so
    worker processes resolve it when unpickling a spec."""
    from repro.ids import sparse_ids
    from repro.search.schedule import Schedule

    return Schedule.from_params(n=n, events=events).compile(sparse_ids(n))


def _build_omission(
    seed: int,
    p: float = 0.1,
    max_omissions: Optional[int] = None,
    first: Optional[int] = None,
    last: Optional[int] = None,
) -> Adversary:
    """I.i.d. per-link message loss (``omission:p=0.1,first=2,last=12``)."""
    from repro.adversary.omission import IIDOmissionAdversary

    rounds = None
    if first is not None or last is not None:
        rounds = (1 if first is None else first, 10**9 if last is None else last)
    return IIDOmissionAdversary(
        p, max_omissions=max_omissions, rounds=rounds, seed=seed
    )


def _build_omission_targeted(
    seed: int, count: int = 1, first: Optional[int] = None, last: Optional[int] = None
) -> Adversary:
    """Sustained silencing of the lowest-labelled senders
    (``omission-targeted:count=2,first=2,last=9``)."""
    from repro.adversary.omission import TargetedOmissionAdversary

    rounds = None
    if first is not None or last is not None:
        rounds = (1 if first is None else first, 10**9 if last is None else last)
    return TargetedOmissionAdversary(count=count, rounds=rounds, seed=seed)


#: Builder parameters that count crashes, rounds, senders or balls.  A
#: float or a bool there is refused: slicing with one fails, and
#: comparing with one silently runs some other adversary.
INTEGER_PARAMS = frozenset(
    "max_crashes every_k_phases every_k_rounds victims_per_round last_round "
    "max_omissions first last count n".split()
)

#: Builder parameters that are probabilities.  Only an int or a float is
#: a number there: a bool would silently run as 0 or 1, and a string
#: (``nan`` does not parse as a literal) fails deep in a comparison.
NUMBER_PARAMS = frozenset({"rate", "p"})

ADVERSARY_BUILDERS: Dict[str, AdversaryBuilder] = {
    "none": _build_none,
    "random": _build_random,
    "targeted": _build_targeted,
    "sandwich": _build_sandwich,
    "half-split": _build_half_split,
    "schedule": _build_schedule,
    "omission": _build_omission,
    "omission-targeted": _build_omission_targeted,
}


@dataclass(frozen=True)
class AdversarySpec:
    """A named, parameterized adversary — hashable and picklable.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so specs can be
    dict keys and cross process boundaries; :meth:`build` instantiates a
    fresh adversary for one trial, seeded with that trial's seed.
    """

    name: str = "none"
    params: Tuple[Tuple[str, Any], ...] = ()
    label: Optional[str] = None

    @classmethod
    def of(cls, name: str, *, label: Optional[str] = None, **params: Any) -> "AdversarySpec":
        """Build a spec, validating the adversary name."""
        if name not in ADVERSARY_BUILDERS:
            raise ConfigurationError(
                f"unknown adversary {name!r}; choose from {sorted(ADVERSARY_BUILDERS)}"
            )
        return cls(name=name, params=tuple(sorted(params.items())), label=label)

    @classmethod
    def parse(cls, text: str) -> "AdversarySpec":
        """Parse the CLI grammar ``name[:key=value[,key=value...]]``.

        Values go through :func:`ast.literal_eval` when possible (so
        ``rate=0.2`` is a float) and stay strings otherwise.
        """
        name, _, raw_params = text.partition(":")
        params: Dict[str, Any] = {}
        if raw_params:
            for item in raw_params.split(","):
                key, sep, raw_value = item.partition("=")
                if not sep or not key:
                    raise ConfigurationError(
                        f"bad adversary parameter {item!r} in {text!r}; "
                        "expected name:key=value[,key=value...]"
                    )
                try:
                    value = ast.literal_eval(raw_value)
                except (SyntaxError, ValueError):
                    value = raw_value
                params[key.strip()] = value
        return cls.of(name.strip(), **params)

    @property
    def key(self) -> str:
        """The display / cell-grouping label."""
        if self.label is not None:
            return self.label
        if not self.params:
            return self.name
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}:{rendered}"

    def build(self, seed: int) -> Optional[Adversary]:
        """A fresh adversary instance for one trial."""
        builder = ADVERSARY_BUILDERS.get(self.name)
        if builder is None:
            raise ConfigurationError(
                f"unknown adversary {self.name!r}; choose from {sorted(ADVERSARY_BUILDERS)}"
            )
        params = dict(self.params)
        try:
            for key in INTEGER_PARAMS.intersection(params):
                value = params[key]
                if value is not None and type(value) is not int:
                    raise TypeError(f"{key} must be an integer, got {value!r}")
            for key in NUMBER_PARAMS.intersection(params):
                value = params[key]
                if type(value) not in (int, float):
                    raise TypeError(f"{key} must be a number, got {value!r}")
            return builder(seed, **params)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"bad parameters for adversary {self.name!r}: {error} "
                f"(accepted: {_builder_params(builder)})"
            ) from None


def _builder_params(builder: AdversaryBuilder) -> str:
    """The builder's accepted parameter names, for error messages."""
    import inspect

    names = [
        name
        for name in inspect.signature(builder).parameters
        if name != "seed"
    ]
    return ", ".join(names) if names else "none"


#: Anything coercible to an AdversarySpec in matrix/CLI construction.
AdversaryLike = Union[str, AdversarySpec]


def as_adversary_spec(value: AdversaryLike) -> AdversarySpec:
    """Coerce a string (CLI grammar) or spec to an :class:`AdversarySpec`."""
    if isinstance(value, AdversarySpec):
        return value
    return AdversarySpec.parse(value)


# -------------------------------------------------------------------- the trial


class CellKey(NamedTuple):
    """Coordinates of one matrix cell (seed dimension aggregated away)."""

    algorithm: str
    n: int
    adversary: str


@dataclass(frozen=True)
class TrialSpec:
    """One fully-described execution; picklable, hashable, deterministic."""

    algorithm: str
    n: int
    seed: int
    adversary: AdversarySpec = AdversarySpec()
    halt_on_name: bool = False
    crash_budget: Optional[int] = None
    check: bool = True
    #: Kernel selection: "auto" (stacked vectorized cells for eligible
    #: cells at the stream floor, columnar when it models the run,
    #: reference otherwise), or a pinned "reference" / "columnar" /
    #: "vectorized" (pinned fast paths raise KernelUnsupported on
    #: rejected cells).
    kernel: str = "auto"
    #: Counterexample-mining mode: capture simulation/spec failures as
    #: data (:attr:`~repro.sim.batch.TrialResult.error`) instead of
    #: letting one poisoned trial abort a whole batch.  A deadlocked run
    #: (the round limit) is exactly what an adversary search hopes to
    #: find.
    capture_errors: bool = False
    #: Runtime invariant monitoring ("off"/"cheap"/"full"); findings land
    #: in :attr:`~repro.sim.batch.TrialResult.violations` and the jsonl
    #: rows.
    monitor: str = "off"
    #: Event capture ("off"/"cheap"/"full"); a cheap trace rides the fast
    #: kernels, a full one pins the reference engine.  The recorded trace
    #: lands in :attr:`~repro.sim.batch.TrialResult.trace`.
    trace: str = "off"

    @property
    def cell(self) -> CellKey:
        """The matrix cell this trial belongs to."""
        return CellKey(self.algorithm, self.n, self.adversary.key)

    def digest(self) -> str:
        """Short content address of the *execution* this spec describes.

        Covers exactly the fields that determine the run's outcome
        (algorithm, n, seed, adversary, halt_on_name, crash_budget,
        kernel-visible knobs) — observation modes (``trace``,
        ``monitor``) and error handling (``check``, ``capture_errors``)
        are excluded, since the byte-identity guarantees pin that they
        never change results.  Trace and scenario files are
        content-addressed by this digest.
        """
        canonical = repr(
            (
                self.algorithm,
                self.n,
                self.seed,
                self.adversary.key,
                self.halt_on_name,
                self.crash_budget,
            )
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
