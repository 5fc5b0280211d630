"""Pluggable simulation kernels.

A *kernel* is one way of executing a fully-described renaming run.  The
**reference** kernel is the executable specification: one
:class:`~repro.sim.process.SyncProcess` per participant driven by the
lock-step :class:`~repro.sim.simulator.Simulation` against the adversary.
The **columnar** kernel is an optimized implementation for the runs that
dominate large-``n`` sweeps — failure-free Balls-into-Leaves-family
executions — representing the whole population as flat arrays (see
:mod:`repro.core.columnar`).

The two are differentially checked to be bit-identical on every run the
fast path supports (the generated-spec oracle in ``tests/test_oracle.py``),
in the spirit of spec-vs-implementation runtime checking: the reference
engine stays the ground truth, the columnar engine earns its speed by
agreeing with it.

The **vectorized** kernel (:mod:`repro.sim.vectorized`) is the
trial-stacked NumPy engine: it executes a whole cell of trials —
failure-free or under certified crash adversaries — as one array
program and is what scenario-matrix sweeps dispatch to
cell-granularly.  As a per-run kernel it is a one-trial stack —
available so ``kernel="vectorized"`` composes with every entry point,
but ``auto`` keeps single runs on the columnar engine (stacking pays
off across trials, not within one).

Selection: callers say ``kernel="auto"`` (the default everywhere) to get
the columnar engine whenever it models the run and the reference engine
otherwise (batch sweeps additionally upgrade whole eligible cells to the
vectorized engine — bit-identical, so invisible); ``"reference"`` pins
the spec; ``"columnar"`` / ``"vectorized"`` pin a fast path and raise
:class:`~repro.errors.KernelUnsupported` with the rejection reason when
the run is out of scope (for the vectorized kernel that includes a
missing NumPy install — it is the ``pip install .[fast]`` extra).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary
from repro.errors import ConfigurationError, KernelUnsupported
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
    #: fast kernels append per-round deltas into ``trace`` from their
    #: flat arrays; ``full`` means ``trace`` wants the reference
    #: engine's message-level instrumentation and pins the spec engine.
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
    def rejects(self, request: KernelRequest) -> Optional[str]:
        """Why this kernel cannot model ``request`` (None = it can)."""

    @abstractmethod
    def run(self, request: KernelRequest) -> KernelRun:
        """Execute the run.  Callers must have checked :meth:`rejects`."""


def select_kernel(name: str, request: KernelRequest) -> SimulationKernel:
    """Resolve a kernel name against one request.

    ``"auto"`` prefers the columnar fast path and falls back to the
    reference engine for runs it rejects; pinning ``"columnar"`` or
    ``"vectorized"`` turns the rejection into an explicit
    :class:`KernelUnsupported`.  (Cell-level ``auto`` upgrades to the
    vectorized engine happen in :mod:`repro.sim.batch`, which sees whole
    cells; a single request has no trials to stack.)

    Only the kernels a branch consults are imported: the concrete
    kernels pull in the process machinery and the array engines (the
    vectorized one NumPy), which themselves import from repro.sim.
    """
    check_kernel_name(name)
    if name == "vectorized":
        from repro.sim.vectorized import VectorizedKernel

        vectorized = VectorizedKernel()
        reason = vectorized.rejects(request)
        if reason is not None:
            raise KernelUnsupported("vectorized", reason)
        return vectorized
    if name != "reference":
        from repro.sim.columnar import ColumnarKernel

        columnar = ColumnarKernel()
        reason = columnar.rejects(request)
        if reason is None:
            return columnar
        if name == "columnar":
            raise KernelUnsupported("columnar", reason)
    from repro.sim.reference import ReferenceKernel

    return ReferenceKernel()
