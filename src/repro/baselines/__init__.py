"""Deterministic comparators for the separation experiments.

* :mod:`repro.baselines.flood_consensus` — agree on the participant set
  by flooding for ``t + 1`` rounds, then rank: the classical linear-round
  approach via reliable broadcast/consensus ([6, 15], round complexity
  from [11]).
* :mod:`repro.baselines.approximate_agreement` — the Section 2
  substrate: iterated midpoint averaging to epsilon-agreement.

The deterministic comparison-based renaming baseline, ``rank-descent``,
is no module of its own: it is Balls-into-Leaves with the ``rank`` path
policy (our stand-in for the Chaudhuri-Herlihy-Tuttle style O(log n)
algorithm, correct by Theorem 1's machinery and driven to repeated
collisions by the sandwich/split adversaries).  Each workload's process
builder and round budget live in :data:`repro.sim.runner.WORKLOADS`.
"""

from repro.baselines.flood_consensus import FloodRenamingProcess, build_flood_renaming

__all__ = [
    "FloodRenamingProcess",
    "build_flood_renaming",
]
