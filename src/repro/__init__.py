"""Balls-into-Leaves: sub-logarithmic tight renaming (PODC 2014), reproduced.

``n`` crash-prone processes, communicating in lock-step synchronous
rounds, assign themselves one-to-one to ``n`` names in ``O(log log n)``
rounds with high probability — exponentially faster than any deterministic
comparison-based algorithm.  This package implements the algorithm, its
early-terminating extension, the deterministic baselines, the adversaries,
and the full experiment suite reproducing every claim of the paper.

Quickstart::

    import repro

    run = repro.run_renaming("balls-into-leaves", repro.sparse_ids(64), seed=7)
    print(run.rounds, run.names)

See README.md and EXPERIMENTS.md for the full tour.

The simulation, adversary, core and tree names below resolve on first
access (a PEP 562 module ``__getattr__``), so ``import repro`` — which
every ``python -m repro`` verb pays — loads no engine.
"""

import importlib
from typing import Any, Dict, List

from repro._version import __version__
from repro.errors import (
    CapacityError,
    ConfigurationError,
    ExperimentError,
    KernelUnsupported,
    ProtocolViolation,
    ReproError,
    RoundLimitExceeded,
    SimulationError,
    SpecViolation,
    TreeError,
    UnknownBallError,
)
from repro.ids import Name, ProcessId, sparse_ids, string_ids

#: Public name -> the module that defines it.
_LAZY: Dict[str, str] = {
    # sim / runner
    "ALGORITHMS": "repro.sim.runner",
    "Simulation": "repro.sim.simulator",
    "RenamingRun": "repro.sim.runner",
    "RenamingSpec": "repro.sim.checker",
    "check_renaming": "repro.sim.checker",
    "run_renaming": "repro.sim.runner",
    "derive_rng": "repro.sim.rng",
    "KERNEL_CHOICES": "repro.sim.kernel",
    "select_kernel": "repro.sim.kernel",
    # adversaries
    "Adversary": "repro.adversary.base",
    "NoFailures": "repro.adversary.none",
    "RandomCrashAdversary": "repro.adversary.random_crash",
    "ScheduledAdversary": "repro.adversary.scheduled",
    "ScheduledCrash": "repro.adversary.scheduled",
    "TargetedPriorityAdversary": "repro.adversary.targeted",
    "SandwichAdversary": "repro.adversary.sandwich",
    "HalfSplitAdversary": "repro.adversary.splitter",
    # core
    "BallsIntoLeavesConfig": "repro.core.config",
    "BallProcess": "repro.core.balls_into_leaves",
    "build_balls_into_leaves": "repro.core.balls_into_leaves",
    # tree
    "Topology": "repro.tree.topology",
    "LocalTreeView": "repro.tree.local_view",
    "render_view": "repro.tree.render",
}

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ProtocolViolation",
    "RoundLimitExceeded",
    "SpecViolation",
    "TreeError",
    "CapacityError",
    "UnknownBallError",
    "ExperimentError",
    "KernelUnsupported",
    # ids
    "ProcessId",
    "Name",
    "sparse_ids",
    "string_ids",
    *_LAZY,
]


def __getattr__(name: str) -> Any:
    """Import a public name's defining module on first access."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_LAZY})
