"""Round and run metrics collected by the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class RoundMetrics:
    """What happened in one lock-step round."""

    round_no: int
    messages_sent: int = 0
    messages_delivered: int = 0
    crashes: int = 0
    alive_after: int = 0
    running_after: int = 0
    #: Sender->receiver links dropped by omission (0 on crash-only
    #: rounds).
    omissions: int = 0


@dataclass
class SimulationMetrics:
    """Aggregated counters for a whole run."""

    rounds: List[RoundMetrics] = field(default_factory=list)

    def record(self, round_metrics: RoundMetrics) -> None:
        """Append one round's counters."""
        self.rounds.append(round_metrics)

    @property
    def total_rounds(self) -> int:
        """Number of rounds executed."""
        return len(self.rounds)

    @property
    def total_messages_sent(self) -> int:
        """Broadcast count summed over senders (one broadcast = one send)."""
        return sum(r.messages_sent for r in self.rounds)

    @property
    def total_messages_delivered(self) -> int:
        """Point-to-point deliveries summed over the run."""
        return sum(r.messages_delivered for r in self.rounds)

    @property
    def total_crashes(self) -> int:
        """Processes crashed by the adversary over the run."""
        return sum(r.crashes for r in self.rounds)

    @property
    def total_omissions(self) -> int:
        """Links dropped by omission over the run."""
        return sum(r.omissions for r in self.rounds)
