"""The process protocol of the lock-step model.

A process alternates ``compose`` (produce this round's broadcast) and
``deliver`` (consume this round's inbox and update state).  The simulator
guarantees: ``compose(r)`` then ``deliver(r, inbox)`` for r = 1, 2, ...,
until the process halts or crashes.  The inbox maps sender pid to payload
and always includes the process's own message (a process knows what it
sent; Section 3's model lets it keep local knowledge regardless).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, Optional

from repro.errors import ProtocolViolation
from repro.ids import ProcessId


class SyncProcess(ABC):
    """Base class for processes driven by :class:`repro.sim.simulator.Simulation`."""

    def __init__(self, pid: ProcessId) -> None:
        self._pid = pid
        self._halted = False
        self._decision: Optional[Any] = None
        self._decided = False

    # --------------------------------------------------------------- identity
    @property
    def pid(self) -> ProcessId:
        """This process's unique original identifier."""
        return self._pid

    # ----------------------------------------------------------------- status
    @property
    def halted(self) -> bool:
        """True once the process has stopped taking steps (terminated)."""
        return self._halted

    @property
    def decided(self) -> bool:
        """True once the process has fixed its output."""
        return self._decided

    @property
    def decision(self) -> Optional[Any]:
        """The decided value, or ``None`` before deciding."""
        return self._decision

    def decide(self, value: Any) -> None:
        """Fix the output value.  Deciding twice with a new value is a bug."""
        if self._decided and self._decision != value:
            raise ProtocolViolation(
                f"process {self._pid!r} tried to change its decision from "
                f"{self._decision!r} to {value!r}"
            )
        self._decision = value
        self._decided = True

    def halt(self) -> None:
        """Stop participating.  A halted process broadcasts nothing."""
        self._halted = True

    # -------------------------------------------------------------- the steps
    @abstractmethod
    def compose(self, round_no: int) -> Any:
        """Return this round's broadcast payload (``None`` = stay silent)."""

    @abstractmethod
    def deliver(self, round_no: int, inbox: Mapping[ProcessId, Any]) -> None:
        """Consume the round's inbox and update local state."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "halted" if self._halted else "running"
        return f"{type(self).__name__}(pid={self._pid!r}, {state})"
