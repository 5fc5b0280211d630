"""Always-on runtime monitoring: columnar invariant predicates and the
importance-splitting rare-event estimator.

* :mod:`repro.monitor.invariants` — the paper's safety/liveness
  invariants as flat-array predicates cheap enough to leave enabled in
  columnar/vectorized sweeps (``monitor="cheap"``), plus the stateful
  per-run monitor with progress/deadlock detection.
* :mod:`repro.monitor.stacked` — the same predicates over a whole
  trial-stacked vectorized cell; the only monitor module that needs
  NumPy.
* :mod:`repro.monitor.splitting` — fixed-effort multilevel importance
  splitting over round-count level sets, estimating tail probabilities
  P(rounds > k·log log n) far below what direct Monte Carlo can reach.

The monitor-mode vocabulary lives beside the kernel request it
configures (:data:`repro.sim.kernel.MONITOR_MODES`), so validating a
mode string loads neither module.
"""
