"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An algorithm, simulator, or experiment was configured inconsistently."""


class KernelUnsupported(ConfigurationError):
    """An explicitly requested simulation kernel cannot model the run.

    Raised when the caller pins ``kernel="columnar"`` or ``"vectorized"``
    for a run that :func:`repro.sim.kernel.kernel_rejection` rejects (an
    uncertified adversary, a non-BiL algorithm, a full trace, ...), with
    that function's reason.  With ``kernel="auto"`` the same rejection
    silently falls back to the next engine instead.
    """

    def __init__(self, kernel: str, reason: str) -> None:
        super().__init__(f"kernel {kernel!r} cannot run this simulation: {reason}")
        self.kernel = kernel
        self.reason = reason


class SimulationError(ReproError):
    """The simulator reached an invalid state (engine bug or misuse)."""


class ProtocolViolation(SimulationError):
    """A process broke the round protocol (e.g. sent after crashing)."""


class RoundLimitExceeded(SimulationError):
    """The simulation did not terminate within the configured round budget."""

    def __init__(self, limit: int, alive: int) -> None:
        super().__init__(
            f"simulation exceeded the round limit of {limit} with {alive} "
            f"process(es) still running"
        )
        self.limit = limit
        self.alive = alive


class MonitorViolation(SimulationError):
    """A runtime invariant monitor caught a violated predicate.

    Raised by the monitored kernels (``monitor="cheap"``/``"full"``)
    when a per-round invariant fails — either immediately on a detected
    deadlock (the run can never progress, so spinning to the round limit
    only wastes time) or at the end of the run when the caller asked for
    ``check_invariants=True``.  ``violations`` carries the structured
    :class:`repro.monitor.invariants.Violation` records with round/ball
    attribution.
    """

    def __init__(self, violations) -> None:
        self.violations = list(violations)
        rendered = "; ".join(v.render() for v in self.violations[:4])
        extra = len(self.violations) - 4
        if extra > 0:
            rendered += f"; ... and {extra} more"
        super().__init__(
            f"{len(self.violations)} invariant violation(s): {rendered}"
        )


class SpecViolation(ReproError):
    """A renaming correctness property (validity/uniqueness/termination) failed.

    Raised by :mod:`repro.sim.checker` when a run's decisions violate the
    renaming specification of Section 3 of the paper.
    """


class TreeError(ReproError):
    """An operation on the virtual leaf tree was invalid."""


class CapacityError(TreeError):
    """A tree placement would exceed a subtree's leaf capacity."""


class UnknownBallError(TreeError):
    """An operation referenced a ball that is not present in the view."""


class ExperimentError(ReproError):
    """An experiment could not be assembled or executed."""


class UnknownExperimentError(ExperimentError):
    """The experiment registry has no entry for the requested id."""

    def __init__(self, experiment_id: str, known: list) -> None:
        super().__init__(
            f"unknown experiment {experiment_id!r}; known ids: {', '.join(sorted(known))}"
        )
        self.experiment_id = experiment_id
