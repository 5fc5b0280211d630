"""Pluggable simulation kernels, and the one decision of which may run what.

A *kernel* is one way of executing a fully-described renaming run.  The
**reference** kernel is the executable specification: one
:class:`~repro.sim.process.SyncProcess` per participant driven by the
lock-step :class:`~repro.sim.simulator.Simulation` against the adversary.
The **columnar** kernel is an optimized implementation for the runs that
dominate large-``n`` sweeps — Balls-into-Leaves-family executions —
representing the whole population as flat arrays (see
:mod:`repro.core.columnar`).

The two are differentially checked to be bit-identical on every run the
fast path supports (the generated-spec oracle in ``tests/test_oracle.py``),
in the spirit of spec-vs-implementation runtime checking: the reference
engine stays the ground truth, the columnar engine earns its speed by
agreeing with it.

The **vectorized** kernel (:mod:`repro.sim.vectorized`) is the
trial-stacked NumPy engine: it executes a whole cell of trials —
failure-free or under certified crash adversaries — as one array
program.  As a per-run kernel it is a one-trial stack, available so
``kernel="vectorized"`` composes with every entry point.

Selection is decided here and nowhere else.  :func:`kernel_rejection`
says why one engine cannot run a request (None = it can), and
:func:`auto_kernel` is what ``kernel="auto"`` means for a unit of
``trials`` trials of ``n`` balls: stack on the vectorized engine from
the :data:`MIN_STREAMS` floor up, else the columnar engine, else the
reference engine.  Three callers ask them — :func:`select_kernel` for
single runs, :func:`repro.sim.batch.plan_tasks` for cells, and
:func:`repro.monitor.splitting.run_tail` for splitting stages — so
``auto`` means the same in every verb, and pinning an engine raises
:class:`~repro.errors.KernelUnsupported` with exactly the reason
``auto`` falls back on.  This module imports no engine, no adversary
and no NumPy, so reading a stored scenario can check its kernel and
monitor names here: the certification predicate loads when a rejection
is asked for, and the vectorized engine's NumPy probe only when that
engine is.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.errors import ConfigurationError, KernelUnsupported

if TYPE_CHECKING:
    from repro.adversary.base import Adversary
    from repro.ids import ProcessId
    from repro.sim.simulator import SimulationResult
    from repro.sim.trace import Trace

#: Kernel names accepted by :func:`select_kernel`, the runner, the batch
#: engine, and the CLI.
KERNEL_CHOICES = ("auto", "reference", "columnar", "vectorized")


def check_kernel_name(name: str) -> str:
    """Validate a kernel name (returns it for chaining)."""
    if name not in KERNEL_CHOICES:
        raise ConfigurationError(
            f"unknown kernel {name!r}; choose from {KERNEL_CHOICES}"
        )
    return name


#: Monitor modes accepted by ``run_renaming``, the batch engine, and the
#: CLI: "off" (no checking), "cheap" (per-round flat-array predicates on
#: any kernel), "full" (cheap predicates plus the instrumented reference
#: movement audit; pins the reference engine).
MONITOR_MODES = ("off", "cheap", "full")


def check_monitor_mode(monitor: str) -> str:
    """Validate a monitor-mode name (returns it for chaining)."""
    if monitor not in MONITOR_MODES:
        raise ConfigurationError(
            f"unknown monitor mode {monitor!r}; choose from {MONITOR_MODES}"
        )
    return monitor


@dataclass(frozen=True)
class KernelRequest:
    """One fully-resolved execution, independent of how it is run.

    Built by :func:`repro.sim.runner.run_renaming` after defaulting: the
    crash budget and round limit are concrete numbers, and ``policy`` is
    the algorithm's Balls-into-Leaves path policy (``None`` for non-BiL
    algorithms such as ``flood``).
    """

    algorithm: str
    ids: Tuple[ProcessId, ...]
    seed: int
    policy: Optional[str]
    adversary: Optional[Adversary] = None
    crash_budget: int = 0
    max_rounds: int = 10_000
    view_mode: str = "shared"
    halt_on_name: bool = False
    check_invariants: bool = False
    collect_phase_stats: bool = False
    trace: Optional[Trace] = None
    #: Trace capture mode ("off"/"cheap"/"full").  ``cheap`` lets the
    #: fast kernels decode their run record into ``trace``; ``full``
    #: means ``trace`` wants the reference engine's message-level
    #: instrumentation and pins the spec engine.
    trace_mode: str = "off"
    #: Runtime invariant monitoring mode ("off"/"cheap"/"full"); "cheap"
    #: runs the flat-array predicates of :mod:`repro.monitor.invariants`
    #: on any kernel, "full" pins the reference engine's instrumented
    #: movement audit on top of them.
    monitor: str = "off"

    @property
    def n(self) -> int:
        """Number of participants."""
        return len(self.ids)


@dataclass
class KernelRun:
    """What a kernel produces: the result plus runner-level extras."""

    result: SimulationResult
    last_round_named: Optional[int] = None
    phase_stats: List[Any] = field(default_factory=list)
    kernel: str = "reference"
    #: Structured :class:`repro.monitor.invariants.Violation` records
    #: collected by the run's monitors (empty when monitoring is off or
    #: every invariant held).
    violations: List[Any] = field(default_factory=list)


class SimulationKernel(ABC):
    """One execution strategy for a :class:`KernelRequest`."""

    name: str = "abstract"

    @abstractmethod
    def run(self, request: KernelRequest) -> KernelRun:
        """Execute the run.  :func:`select_kernel` has checked that this
        engine accepts it."""


#: Minimum stream count (trials x n) from which ``auto`` stacks a unit —
#: a batch cell or a splitting stage — on the vectorized engine; below it
#: the unit runs per trial on the columnar engine.  A stack pays fixed
#: costs (a ~5 ms MT-seeding pass for Balls-into-Leaves, adversary
#: planning and class bookkeeping per round) that only amortize across
#: enough streams.  Measured on a two-core Xeon with NumPy preloaded
#: (stacked vs per-trial, median of 5): failure-free Balls-into-Leaves
#: cells run faster per-trial up to 256 streams (16 x 2: 6.0 vs 0.75 ms),
#: tie near 512 and stack faster from 1024 (32 x 32: 11 vs 18 ms;
#: 256 x 32: 46 vs 121 ms); crash cells cross at the same point
#: (random:rate=0.1, 32 x 32: 30 vs 36 ms).  RNG-free early-terminating
#: stacks win from ~128 streams, but one floor costs its small cells
#: under 3 ms each.  Pinning a kernel bypasses the floor: ``vectorized``
#: always stacks, ``columnar`` never does.
MIN_STREAMS = 1 << 10


def kernel_rejection(
    kernel: str,
    *,
    algorithm: str,
    policy: Optional[str],
    adversary: Optional[Adversary] = None,
    trace: str = "off",
    monitor: str = "off",
    phase_stats: bool = False,
    view_mode: str = "shared",
) -> Optional[str]:
    """Why ``kernel`` cannot run a request with these fields (None = it can).

    The fields are the ones the choice reads; ``policy`` is the
    algorithm's Balls-into-Leaves path policy (None = not BiL-based).
    The reason is what a pinned engine's :class:`KernelUnsupported`
    carries and what ``auto`` falls back on.
    """
    if kernel == "reference":
        return None
    if policy is None:
        return (
            f"algorithm {algorithm!r} is not Balls-into-Leaves-based; its "
            "broadcasts are not position announcements over a shared view"
        )
    from repro.adversary.certification import certification_failure

    columnar = kernel == "columnar"
    failure = certification_failure(
        adversary, supported=("crash", "omission") if columnar else ("crash",)
    )
    if failure is not None:
        return failure
    runs = "runs columnar" if columnar else "runs stacked"
    if trace == "full":
        return (
            "full trace recording observes the reference engine's "
            f"message-level events; cheap tracing {runs}"
        )
    if phase_stats:
        return "phase statistics observe the reference view store"
    if monitor == "full":
        return (
            "monitor='full' audits the reference engine's instrumented "
            f"movement; cheap monitoring {runs}"
        )
    reasons = []
    if not columnar:
        from repro.core import mt19937

        if not mt19937.HAVE_NUMPY:
            reasons.append(
                "numpy is not installed (the vectorized kernel is the "
                "`pip install .[fast]` extra)"
            )
    if view_mode != "shared":
        reasons.append(
            f"view mode {view_mode!r} asks for the reference engine's "
            "store (faithful = the paper-verbatim per-ball trees)"
        )
    return "; ".join(reasons) or None


def clears_floor(trials: int, n: int) -> bool:
    """Does ``auto`` stack ``trials`` trials of ``n`` balls?  Stacking
    pays across trials, so one trial never does."""
    return trials >= 2 and trials * n >= MIN_STREAMS


def auto_kernel(trials: int, n: int, **fields: Any) -> str:
    """What ``kernel="auto"`` runs a unit of ``trials`` x ``n`` on: the
    vectorized engine from the floor up when it accepts ``fields`` (the
    keywords of :func:`kernel_rejection`), else the columnar engine when
    it does, else the reference engine.  The floor is checked first, so
    a small unit never probes NumPy.
    """
    if clears_floor(trials, n) and kernel_rejection("vectorized", **fields) is None:
        return "vectorized"
    if kernel_rejection("columnar", **fields) is None:
        return "columnar"
    return "reference"


def select_kernel(name: str, request: KernelRequest) -> SimulationKernel:
    """Resolve a kernel name against one request (a unit of one trial).

    ``"auto"`` asks :func:`auto_kernel`, which never stacks a single run;
    a pinned engine that rejects the request raises
    :class:`KernelUnsupported` with :func:`kernel_rejection`'s reason.
    Only the chosen kernel is imported: the concrete kernels pull in the
    process machinery and the array engines (the vectorized one NumPy).
    """
    check_kernel_name(name)
    fields = dict(
        algorithm=request.algorithm,
        policy=request.policy,
        adversary=request.adversary,
        trace=request.trace_mode,
        monitor=request.monitor,
        phase_stats=request.collect_phase_stats,
        view_mode=request.view_mode,
    )
    if name == "auto":
        name = auto_kernel(1, request.n, **fields)
    else:
        reason = kernel_rejection(name, **fields)
        if reason is not None:
            raise KernelUnsupported(name, reason)
    if name == "vectorized":
        from repro.sim.vectorized import VectorizedKernel

        return VectorizedKernel()
    if name == "columnar":
        from repro.sim.columnar import ColumnarKernel

        return ColumnarKernel()
    from repro.sim.reference import ReferenceKernel

    return ReferenceKernel()
