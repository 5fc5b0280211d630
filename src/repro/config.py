"""The process-environment seam: typed readers for every ``REPRO_*`` knob.

Determinism contract: environment variables must never influence
*results* — only wall-clock strategy (thread fanout, the stacking
floor).  Every knob therefore lives here: one function per variable,
read per call (never cached, so the CLI and tests can set the
environment at any point), with validation and a documented default.

The D105 lint rule (:mod:`repro.lint.rules_determinism`) enforces the
seam: an ``os.environ`` read anywhere else in ``src/`` fails
``repro lint``.  Adding a knob means adding a reader here — which is
exactly the audit point the rule exists to create.

Knobs
-----
``REPRO_VEC_THREADS``
    Thread count for the vectorized kernel's seeding/twist column
    fanout.  Any value is byte-identical (partitioning is by contiguous
    column slices); this is wall-clock hygiene only.
``REPRO_VEC_MAX_STREAMS``
    Stream budget (trials x n) of one stacked vectorized call; bounds
    resident MT state (~2.5 KB per stream).
``REPRO_VEC_MIN_STREAMS``
    Minimum stream count below which an ``auto`` cell, failure-free or
    crash, stays on the per-trial columnar path (a stack's fixed
    seeding and per-round costs only amortize across enough streams).
    0 = always stack.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

#: Stream budget (trials x n) of one stacked vectorized call.
DEFAULT_MAX_STREAMS = 1 << 17

#: Measured crossover floor for stacking ``auto`` cells (streams).
DEFAULT_MIN_STREAMS = 1 << 10


def _read(name: str) -> str:
    """The raw knob text, stripped; empty string when unset."""
    # The seam's single environment read (D105 allowlists this module).
    return os.environ.get(name, "").strip()


def _int_knob(name: str, *, default: int, minimum: int) -> int:
    """Parse an integer knob, clamped to ``minimum``; unset -> default."""
    raw = _read(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    return max(minimum, value)


def vec_threads() -> int:
    """Resolved ``REPRO_VEC_THREADS`` (default: CPU count, always >= 1).

    Unparseable text degrades to 1 (the exact serial pass) rather than
    erroring: the knob cannot change results, so a typo should never
    kill a run that a conservative fanout completes correctly.
    """
    raw = _read("REPRO_VEC_THREADS")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return max(1, os.cpu_count() or 1)


def set_vec_threads(threads: int) -> None:
    """Pin the fanout width (the CLI's ``--threads``); validated.

    Writing the environment rather than module state keeps the knob
    visible to worker processes and to every per-pass read site.
    """
    if threads < 1:
        raise ConfigurationError(f"thread count must be >= 1, got {threads}")
    os.environ["REPRO_VEC_THREADS"] = str(threads)


def vec_max_streams() -> int:
    """Resolved ``REPRO_VEC_MAX_STREAMS`` (>= 1; default 2**17)."""
    return _int_knob(
        "REPRO_VEC_MAX_STREAMS", default=DEFAULT_MAX_STREAMS, minimum=1
    )


def min_streams() -> int:
    """Resolved ``REPRO_VEC_MIN_STREAMS`` (>= 0; default 2**10)."""
    return _int_knob(
        "REPRO_VEC_MIN_STREAMS", default=DEFAULT_MIN_STREAMS, minimum=0
    )

