"""The paper's primary contribution: the Balls-into-Leaves algorithm.

:class:`~repro.core.balls_into_leaves.BallProcess` implements Algorithm 1
on the :mod:`repro.sim` substrate.  The random, early-terminating
(Section 6), deterministic-rank, and degenerate-leftmost variants differ
only in the *path policy* (:mod:`repro.core.policies`) used on lines
5-10; everything else (priority movement, crash handling, round-2
synchronization, termination) is shared, mirroring the paper's
structure.  The flat-array engines live in :mod:`repro.core.columnar`
and, on NumPy installs, :mod:`repro.core.vectorized`.
"""
