"""The differential oracle: generated specs, run on every kernel.

The reference kernel is the executable specification; the columnar and
vectorized kernels earn their speed by agreeing with it.  Instead of an
enumerated grid, this module draws whole specs — any renaming workload,
``n`` (non-powers of two included), seed, halt mode, id scheme,
sometimes a small round limit, and a fault plan that is a named
``--adversary`` or a hunt genotype of crash and omit events — and
asserts for each:

* **every kernel reproduces the reference outcome**: the result minus
  its trace (decisions, crash and halt sets, every per-round metrics
  row), ``last_round_named``, the rendered monitor reports and the
  ``shared_events`` of the trace; or the same error and partial trace;
* **observation never perturbs**: a completed run gives the same result
  with monitor and trace off;
* **the renaming spec holds**, with silent monitors, when the plan has
  no omission family and no round-limit override;
* **stacked cells match per-trial runs**: three sibling seeds through
  ``run_cell``, and a hunt generation through ``run_batch(...,
  mixed_cells=True)`` with the stream floor at 0;
* **checkpoints match**: failure-free columnar and stacked engines
  export equal states at a drawn round.

Mined counterexamples are ``@example`` pins.  Two floors run the same
check on fixed specs, so coverage does not depend on the draws: BiL
algorithm x halt mode x fault plan, and workload x small ``n`` x ids.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import KernelUnsupported, ReproError
from repro.ids import sparse_ids, string_ids
from repro.search.schedule import EVENT_KINDS, CrashEvent, Schedule
from repro.sim import batch
from repro.sim.batch import AdversarySpec, TrialSpec, run_batch, run_cell, run_trial
from repro.sim.checker import RenamingSpec, check_renaming
from repro.sim.runner import ALGORITHMS, WORKLOADS, run_renaming
from repro.sim.trace import shared_events
from repro.sim.vectorized import vectorized_available

RENAMING = sorted(name for name, load in WORKLOADS.items() if load.renaming)
BIL = sorted(name for name in RENAMING if ALGORITHMS[name] is not None)
KERNELS = ("reference", "columnar", "vectorized")
#: Workloads whose runs can take on the order of n rounds (the leftmost
#: worst case, and the flooding baselines under omission); they draw
#: n <= 64, so long runs spend their time on the O(log log n) ones.
LINEAR = ("flood", "leftmost", "parallel-retry")

#: Every certified crash and omission family of the ``--adversary``
#: grammar, with a few parameter sets each.
ADVERSARIES = (
    "none", "random:rate=0.15", "random:rate=0.3,delivery=uniform",
    "random:rate=0.5,max_crashes=2", "targeted:max_crashes=3",
    "targeted:every_k_phases=2", "sandwich",
    "sandwich:every_k_rounds=1,max_crashes=4", "half-split",
    "half-split:victims_per_round=2,last_round=9", "omission:p=0.1",
    "omission:p=0.1,first=2,last=6",
    "omission:p=0.2,max_omissions=6,first=3,last=5",
    "omission-targeted:count=1,first=2,last=5", "omission-targeted:count=2",
)

Events = Tuple[CrashEvent, ...]


@dataclass(frozen=True)
class Spec:
    """One drawn execution, plus what the stacked checks draw."""

    algorithm: str = "balls-into-leaves"
    n: int = 16
    seed: int = 0
    halt_on_name: bool = False
    string_ids: bool = False
    #: A named adversary, or a hunt genotype when ``events`` is set.
    adversary: str = "none"
    events: Optional[Events] = None
    max_rounds: Optional[int] = None
    #: More genotypes, batched after ``events`` as one hunt generation.
    generation: Tuple[Events, ...] = ()
    #: The round the checkpoint check exports at.
    checkpoint: int = 3
    #: Kernels whose completed run is repeated with monitor and trace off.
    unobserved: Tuple[str, ...] = KERNELS

    def ids(self) -> list:
        return string_ids(self.n) if self.string_ids else sparse_ids(self.n)

    def build_adversary(self) -> Any:
        """A fresh adversary for one run.  A genotype compiles against
        this spec's ids: the ``schedule`` builder binds to
        ``sparse_ids(n)`` and would leave a string-id run fault-free."""
        if self.events is not None:
            return Schedule.of(self.n, self.events).compile(self.ids())
        return AdversarySpec.parse(self.adversary).build(self.seed)

    @property
    def omits(self) -> bool:
        adversary = self.build_adversary()
        return adversary is not None and "omission" in adversary.fault_families()


@st.composite
def genotypes(draw: Any, n: int) -> Events:
    """Up to four events, crash-only half the time (so generations
    stack).  Receivers are a few indices or everyone but a few."""
    kinds = ("crash",) if draw(st.booleans()) else EVENT_KINDS
    events = []
    for _ in range(draw(st.integers(0, 4))):
        picked = draw(st.sets(st.integers(0, n - 1), max_size=4))
        receivers = picked if draw(st.booleans()) else set(range(n)) - picked
        round_no, victim = draw(st.integers(1, 12)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(kinds))
        events.append(CrashEvent(round_no, victim, tuple(sorted(receivers)), kind))
    return tuple(events)


@st.composite
def specs(draw: Any, max_n: int) -> Spec:
    # BiL algorithms run on every kernel, so they are drawn more often.
    algorithm = draw(st.sampled_from(BIL) | st.sampled_from(RENAMING))
    n = draw(st.integers(1, min(max_n, 64) if algorithm in LINEAR else max_n))
    named = draw(st.booleans())
    limited = draw(st.integers(0, 3)) == 0
    return Spec(
        algorithm=algorithm,
        n=n,
        seed=draw(st.integers(0, 2**63)),
        halt_on_name=algorithm in BIL and draw(st.booleans()),
        string_ids=draw(st.booleans()),
        adversary=draw(st.sampled_from(ADVERSARIES)) if named else "none",
        events=None if named else draw(genotypes(n)),
        max_rounds=draw(st.integers(1, 8)) if limited else None,
        generation=tuple(draw(st.lists(genotypes(n), max_size=4))),
        checkpoint=draw(st.integers(1, 12)),
        unobserved=(draw(st.sampled_from(KERNELS)),),
    )


def _observe(spec: Spec, kernel: str, *, observed: bool = True) -> Optional[Dict]:
    """The observable surface of ``spec`` pinned to ``kernel`` (None when
    the kernel rejects it).  Observed runs monitor, and trace fully on
    the reference kernel and cheaply on the fast ones."""
    trace = ("full" if kernel == "reference" else "cheap") if observed else "off"
    try:
        run = run_renaming(
            spec.algorithm, spec.ids(), seed=spec.seed,
            adversary=spec.build_adversary(), halt_on_name=spec.halt_on_name,
            check=False, max_rounds=spec.max_rounds, kernel=kernel,
            monitor="cheap" if observed else "off", trace=trace,
        )
    except KernelUnsupported:
        return None
    except ReproError as error:
        partial = getattr(error, "partial_trace", None)
        return {
            "error": f"{type(error).__name__}: {error}",
            "events": None if partial is None else shared_events(partial),
        }
    return {
        "result": dataclasses.replace(run.result, trace=None),
        "last_round_named": run.last_round_named,
        "reports": [violation.render() for violation in run.violations],
        "events": None if run.trace is None else shared_events(run.trace),
    }


def _trial(spec: Spec, k: int, adversary: AdversarySpec, **knobs: Any) -> TrialSpec:
    return TrialSpec(
        algorithm=spec.algorithm, n=spec.n, seed=spec.seed + k,
        adversary=adversary, halt_on_name=spec.halt_on_name,
        capture_errors=True, monitor="cheap", **knobs,
    )


def _row(result: Any) -> Dict:
    """A trial row without its kernel label, plus its shared events."""
    row = result.to_row()
    del row["kernel"]
    row["events"] = None if result.trace is None else shared_events(result.trace)
    return row


def check_spec(spec: Spec) -> Dict:
    """Assert every oracle property of ``spec``; return the reference
    outcome."""
    bil = spec.algorithm in BIL
    stacks = bil and vectorized_available() and not spec.omits
    reference = _observe(spec, "reference")
    ran = ["reference"]
    for kernel in KERNELS[1:]:
        outcome = _observe(spec, kernel)
        if outcome is not None:
            ran.append(kernel)
            assert outcome == reference, kernel
    assert ran == ["reference"] + ["columnar"] * bil + ["vectorized"] * stacks
    for kernel in ran:
        if kernel in spec.unobserved and "error" not in reference:
            bare = _observe(spec, kernel, observed=False)
            assert bare["result"] == reference["result"], kernel
            assert bare["last_round_named"] == reference["last_round_named"]
    if spec.max_rounds is None and not spec.omits:
        assert "error" not in reference, reference["error"]
        check_renaming(reference["result"], RenamingSpec(n=spec.n))
        assert reference["reports"] == []
    members = ((spec.events,) if spec.events is not None else ()) + spec.generation
    if bil and vectorized_available() and len(members) > 1:
        generation = [
            _trial(spec, k, Schedule.of(spec.n, events).spec(), check=False)
            for k, events in enumerate(members)
        ]
        with mock.patch.object(batch, "MIN_STREAMS", 0):
            stacked = run_batch(generation, mixed_cells=True).trials
        for member, got in zip(generation, stacked):
            # A member left per-trial ran through run_trial already.
            if got.kernel == "vectorized":
                assert _row(got) == _row(run_trial(member))
    if stacks:
        adversary = (
            Schedule.of(spec.n, spec.events).spec()
            if spec.events is not None
            else AdversarySpec.parse(spec.adversary)
        )
        siblings = [
            _trial(spec, k, adversary, kernel="vectorized", trace="cheap")
            for k in range(3)
        ]
        for sibling, got in zip(siblings, run_cell(siblings)):
            want = run_trial(dataclasses.replace(sibling, kernel="columnar"))
            assert got.kernel == "vectorized" and _row(got) == _row(want)
        if spec.adversary == "none" and not spec.events:
            _check_checkpoint(spec)
    return reference


def _check_checkpoint(spec: Spec) -> None:
    """Columnar and stacked checkpoints agree at a drawn round."""
    from repro.core.columnar import ColumnarCrashEngine
    from repro.core.vectorized import VectorizedCrashEngine

    shape: Dict[str, Any] = dict(
        policy=ALGORITHMS[spec.algorithm],
        halt_on_name=spec.halt_on_name,
        crash_budget=spec.n - 1,
    )
    engine = ColumnarCrashEngine(spec.ids(), seed=spec.seed, **shape)
    for round_no in range(1, spec.checkpoint + 1):
        if engine.running_count:
            engine.step(round_no)
    if engine.running_count:
        stacked = VectorizedCrashEngine(spec.ids(), [spec.seed], **shape)
        stacked.run(stop_after=spec.checkpoint)
        assert stacked.export_trial_state(0) == engine.export_state()


def _ghost(n: int, seed: int, victim: int, receivers: Tuple[int, ...]) -> Spec:
    """A mined mid-path-crash ghost schedule (it once deadlocked)."""
    events = (CrashEvent(2, victim, receivers),)
    return Spec(n=n, seed=seed, halt_on_name=True, events=events)


@settings(max_examples=75, derandomize=True, database=None, deadline=None)
@given(spec=specs(max_n=40))
@example(spec=_ghost(9, 1, 0, (1,)))
@example(spec=_ghost(5, 1, 0, (1,)))
@example(spec=_ghost(7, 5, 1, (2, 4)))
@example(spec=_ghost(13, 5, 2, (1, 3)))
# The mined nine-round crash schedule.
@example(spec=Spec(seed=4301463716303469878, events=(CrashEvent(3, 6, ()),)))
# The mined dropped hello: one round-1 omission splits ball 1's view.
@example(spec=Spec(seed=7, events=(CrashEvent(1, 1, (11,), "omit"),)))
# Crash-only genotypes lead a generation; the omit genotypes behind
# them must keep their omissions, not ride the crash-only stack.
@example(spec=Spec(seed=2, events=(CrashEvent(3, 6, ()),), generation=(
    (CrashEvent(2, 5, (0, 1)),),
    (CrashEvent(2, 4, (1,), "omit"),),
    (CrashEvent(3, 9, (), "omit"), CrashEvent(4, 2, ())),
)))
# A stall the monitor stops: every partial trace keeps the last round.
@example(spec=Spec(n=26, halt_on_name=True, adversary="omission:p=0.1"))
# A round-limit error on the pinned vectorized kernel keeps its trace.
@example(spec=Spec(n=12, seed=11, max_rounds=3, events=(
    CrashEvent(2, 3, (0, 1, 5)), CrashEvent(5, 7, (2,)),
)))
# Sibling seed 1 stalls on every kernel (a halt-on-name liveness bug):
# its stacked error row keeps its partial trace, as a per-trial row does.
@example(spec=Spec(
    n=396, halt_on_name=True, max_rounds=1,
    adversary="half-split:victims_per_round=2,last_round=9",
))
def test_every_kernel_reproduces_the_reference(spec: Spec) -> None:
    check_spec(spec)


#: One plan per fault family, a crash-only genotype (it stacks), and
#: every other named adversary.
CRASH = CrashEvent(2, 3, (0, 1, 5))
FLOOR = {
    "none": Spec(seed=5),
    "crash": Spec(seed=5, adversary="random:rate=0.3"),
    "omission": Spec(seed=5, adversary="omission:p=0.1,first=2,last=6"),
    "mixed": Spec(seed=5, events=(CRASH, CrashEvent(2, 1, (2,), "omit"))),
    "schedule": Spec(seed=5, events=(CRASH, CrashEvent(3, 6, ()))),
}
FLOOR.update(
    (name, Spec(seed=5, adversary=name)) for name in ADVERSARIES
    if all(plan.adversary != name for plan in FLOOR.values())
)
#: The shared event kind that proves a declared fault family injected.
INJECTED = {"crash": "crash", "omission": "omit"}


@pytest.mark.parametrize("family", sorted(FLOOR))
@pytest.mark.parametrize("halt_on_name", [False, True])
@pytest.mark.parametrize("algorithm", BIL)
def test_coverage_floor(algorithm: str, halt_on_name: bool, family: str) -> None:
    """Each plan injects every fault family it declares."""
    spec = dataclasses.replace(
        FLOOR[family], algorithm=algorithm, halt_on_name=halt_on_name
    )
    adversary = spec.build_adversary()
    declared = () if adversary is None else adversary.fault_families()
    kinds = {kind for _, kind, _ in check_spec(spec)["events"]}
    assert {INJECTED[name] for name in declared} <= kinds


@pytest.mark.parametrize("string_ids", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 13, 31])
@pytest.mark.parametrize("algorithm", RENAMING)
def test_shape_floor(algorithm: str, n: int, string_ids: bool) -> None:
    """Tiny and non-power-of-two sizes, under both id schemes."""
    check_spec(Spec(algorithm=algorithm, n=n, seed=n, string_ids=string_ids))


@pytest.mark.tier2
@settings(max_examples=3000, database=None, deadline=None)
@given(spec=specs(max_n=512))
@example(spec=Spec(n=1024, seed=1))
@example(spec=Spec(n=4096, seed=1, halt_on_name=True))
@example(spec=Spec(n=256, seed=2, halt_on_name=True, adversary="random:rate=0.15"))
@example(spec=Spec(n=256, seed=2, halt_on_name=True, adversary="sandwich"))
def test_every_kernel_reproduces_the_reference_long_run(spec: Spec) -> None:
    check_spec(spec)
