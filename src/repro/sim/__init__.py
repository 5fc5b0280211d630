"""Synchronous message-passing substrate (the model of Section 3).

Computation proceeds in lock-step rounds.  Each round every running
process composes one broadcast, the adversary decides who crashes and
which receivers still get a crashing sender's message, messages are
delivered, and every surviving process takes a step.  Crashed processes
stop and never recover.

The engine is deterministic given a seed: process randomness comes from
:func:`repro.sim.rng.derive_rng`, so every experiment in this repository
is exactly reproducible.

Import names from their defining modules (:mod:`repro.sim.simulator`,
:mod:`repro.sim.runner`, :mod:`repro.sim.batch`, ...): this package
re-exports nothing, so loading one of them loads no engine it does not
use.
"""
