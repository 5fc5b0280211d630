"""Automated adversary synthesis and counterexample mining.

The paper's guarantees — O(log log n) rounds w.h.p., a tight namespace,
liveness under ``t < n`` crashes — are claims *against an adaptive
adversary*, but the bundled strategies exercise only six hand-written
crash behaviors.  This subsystem closes the gap by *searching* the space
of crash schedules for executions that maximize an objective, in the
spirit of runtime checking of distributed protocol specifications:

* :mod:`repro.search.schedule` — a serializable genotype for adversary
  behavior (per-round crash *and* one-round omission events with
  explicit receiver subsets) that compiles to a columnar-certified
  :class:`~repro.adversary.scheduled.ScheduledAdversary`, so searched
  schedules run on the fast engines;
* :mod:`repro.search.objectives` — pluggable objectives over trial
  outcomes (worst-case rounds, message count, namespace width,
  invariant stress, liveness-violation indicators);
* :mod:`repro.search.strategies` — seeded random search, greedy
  hill-climbing over single-crash mutations, and a population strategy,
  all dispatching trial batches through :mod:`repro.sim.batch`;
* :mod:`repro.search.shrink` — delta-debugging minimization of a found
  schedule down to a minimal repro, emitted as a ready-to-paste pytest
  regression (the PR 3 ghost-leaf workflow, automated).

Entry points: ``python -m repro hunt`` and
:func:`repro.search.strategies.run_hunt`.
"""
