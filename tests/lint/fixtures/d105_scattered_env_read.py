"""Golden violation: environment reads (D105).

The knob-read pattern ``sim/batch.py``, ``core/mt19937.py`` and
``core/sha256.py`` once carried; ``src/`` now reads no environment
variable at all.
"""

import os

DEFAULT_MAX_STREAMS = 1 << 17


def _max_streams():
    raw = os.environ.get("REPRO_VEC_MAX_STREAMS")  # expect: D105
    return max(1, int(raw)) if raw else DEFAULT_MAX_STREAMS


def _lanes_mode():
    return os.getenv("REPRO_SHA256_LANES", "auto")  # expect: D105
