"""Vectorized, bit-exact Mersenne-Twister streams for the stacked kernel.

The reference and columnar engines give every ball its own
:class:`random.Random` (CPython's C MT19937), seeded through
:func:`repro.sim.rng.derive_seed`.  A trial-stacked kernel needs the
*same* draws for tens of thousands of (trial, ball) streams at once —
one Python object and one ``random()`` call per draw is exactly the
interpreter cost it exists to amortize.

:class:`MTStreamBank` therefore reimplements the generator as NumPy
array passes over a ``(624, S)`` stacked state, one column per stream:

* seeding is CPython's ``init_by_array`` (the key is the seed's
  little-endian 32-bit words) advanced for all streams per step, with
  seeds batched *by key width* so unusual widths (sub-32-bit seeds,
  giant integers) still seed vectorized instead of one stream at a
  time;
* output words come from *partial* twists — a run consumes a dozen or
  two doubles per stream, so only the needed rows of the next
  generation are ever computed;
* doubles are assembled exactly as CPython's ``random()`` does
  (``(a >> 5) * 2**26 + (b >> 6)`` over two consecutive words, divided
  by ``2**53``).

Bit-identity with ``random.Random(seed).random()`` is asserted for
every stream shape in ``tests/sim/test_mt19937_streams.py``; the
vectorized kernel's differential suite then rests on it.

NumPy is an optional extra (``pip install .[fast]``): this module
imports with :data:`HAVE_NUMPY` False when it is missing, and the
kernel layer degrades to the columnar engine.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence

from repro.core.instrumentation import TIMERS

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

try:  # Same C base type the engines seed per ball (see core.columnar).
    from _random import Random as _MTRandom
except ImportError:  # pragma: no cover - CPython always has _random
    from random import Random as _MTRandom  # type: ignore[assignment]

#: MT19937 parameters (Matsumoto & Nishimura), as used by CPython.
_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF

#: Doubles produced per generation (two 32-bit words per double).
DOUBLES_PER_GENERATION = _N // 2

_base_state_cache = None

#: Scratch ``(624, S)`` state buffers, recycled across banks.  A sweep
#: or hunt seeds thousands of equally-shaped banks back to back, and on
#: this allocation pattern the kernel page-fault cost of a fresh 1/4 GB
#: ``np.empty`` dwarfs the actual fill pass (~4x at S ~ 100k).  A buffer
#: is handed out only while nothing but the pool references it, so a
#: live bank (or any view into its state) can never be aliased.
_state_pool: List["np.ndarray"] = []
_STATE_POOL_MAX = 3


def _acquire_state(count: int) -> "np.ndarray":
    """An uninitialized ``(624, count)`` u32 buffer, pooled when free.

    CPython refcounting makes "free" exact: a pooled buffer with no
    outside holder is referenced by the pool list, the loop variable,
    and ``getrefcount``'s argument — three.  Any bank state, temporary
    view, or caller reference raises it, and the pool then allocates a
    fresh buffer instead (false "in use" only ever costs speed).
    """
    for buf in _state_pool:
        if buf.shape[1] == count and sys.getrefcount(buf) == 3:
            return buf
    buf = np.empty((_N, count), dtype=np.uint32)
    if len(_state_pool) >= _STATE_POOL_MAX:
        _state_pool.pop(0)
    _state_pool.append(buf)
    return buf


def _base_state() -> "np.ndarray":
    """``init_genrand(19650218)`` — the key-independent seeding prefix."""
    global _base_state_cache
    if _base_state_cache is None:
        base = np.empty(_N, dtype=np.uint64)
        base[0] = 19650218
        for i in range(1, _N):
            prev = int(base[i - 1])
            base[i] = (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
        _base_state_cache = base.astype(np.uint32)
    return _base_state_cache


def _key_words(seed: int) -> List[int]:
    """CPython ``random_seed``'s init key: ``abs(seed)`` as little-endian
    32-bit words (zero is the single word ``[0]``)."""
    value = abs(int(seed))
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _mix_group(mt: "np.ndarray", keys: "np.ndarray") -> None:
    """``init_by_array`` over one same-width group, all columns per step.

    ``mt`` is an *uninitialized* ``(624, G)`` buffer (written in place);
    ``keys`` the ``(W, G)`` key matrix with ``key[j] + j`` pre-folded
    (the reference loop adds both).  Runs ``max(624, W)`` mixing steps
    then the 623 decay steps, exactly CPython's schedule for a
    ``W``-word key.

    The reference seeds ``init_genrand(19650218)`` first and xors each
    key-mixing step into that base state.  The base state is
    key-independent, and the first 623 steps each touch their row for
    the first time — so instead of broadcasting a quarter-gigabyte base
    matrix up front, those steps fold ``base[i]`` in as a scalar and
    write the row fresh; only revisits (step >= 623) read the row back.
    """
    width = keys.shape[0]
    base = _base_state()
    mix1 = np.uint32(1664525)
    mix2 = np.uint32(1566083941)
    s30 = np.uint32(30)
    tmp = np.empty(mt.shape[1], dtype=np.uint32)
    i = 1
    j = 0
    for step in range(max(_N, width)):
        row = mt[i]
        if step == 0:
            # Row 0 is never materialized before its first wrap copy;
            # the whole first step is scalar arithmetic on base[0]
            # folded into the key add.
            b0 = int(base[0])
            head = (int(base[1]) ^ ((1664525 * (b0 ^ (b0 >> 30))) & 0xFFFFFFFF)) & 0xFFFFFFFF
            np.add(keys[0], np.uint32(head), out=row)
        else:
            prev = mt[i - 1]
            np.right_shift(prev, s30, out=tmp)
            np.bitwise_xor(tmp, prev, out=tmp)
            np.multiply(tmp, mix1, out=tmp)
            if step < _N - 1:  # first visit: fold base[i] as a scalar
                np.bitwise_xor(tmp, base[i], out=row)
            else:
                np.bitwise_xor(row, tmp, out=row)
            np.add(row, keys[j], out=row)
        i += 1
        j += 1
        if i >= _N:
            mt[0] = mt[_N - 1]
            i = 1
        if j >= width:
            j = 0
    for _ in range(_N - 1):
        prev = mt[i - 1]
        np.right_shift(prev, s30, out=tmp)
        np.bitwise_xor(tmp, prev, out=tmp)
        np.multiply(tmp, mix2, out=tmp)
        row = mt[i]
        np.bitwise_xor(row, tmp, out=row)
        np.subtract(row, np.uint32(i), out=row)
        i += 1
        if i >= _N:
            mt[0] = mt[_N - 1]
            i = 1
    mt[0] = np.uint32(0x80000000)


def seed_states(seeds: Sequence[int]) -> "np.ndarray":
    """CPython ``Random(seed)`` states for every seed, as ``(624, S)`` u32.

    Vectorizes ``init_by_array`` across streams.  The ubiquitous
    two-word keys (64-bit :func:`~repro.sim.rng.derive_seed` outputs)
    run as one full-matrix pass; any other key width — sub-32-bit
    seeds, >=2**64 integers — is batched per width and seeded through
    the same vectorized mixing loops on its column group, so a bank is
    never reduced to stream-at-a-time scalar reproduction.
    """
    timer_started = TIMERS.start()
    uniform64 = isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64
    if uniform64:
        seeds_arr = seeds
        # The batched derive_ball_seeds path: uniform 64-bit values; the
        # (astronomically rare) sub-2**32 ones form a one-word group.
        odd: Dict[int, List[int]] = {}
        for i in np.flatnonzero(seeds_arr < np.uint64(2**32)).tolist():
            odd.setdefault(1, []).append(i)
        originals: Sequence[int] = seeds_arr
    else:
        originals = list(seeds)
        odd = {}
        for i, s in enumerate(originals):
            if not 2**32 <= s < 2**64:
                odd.setdefault(len(_key_words(s)), []).append(i)
        seeds_arr = np.array(
            [s if 2**32 <= s < 2**64 else 2**32 for s in originals],
            dtype=np.uint64,
        )
    count = len(seeds_arr)
    mt = _acquire_state(count)
    odd_count = sum(len(idx) for idx in odd.values())
    if odd_count < count:
        # Two-word common case over the whole matrix; odd-width columns
        # are recomputed by their group below (the wasted mixing is
        # cheaper than excising scattered columns first).
        keys = np.empty((2, count), dtype=np.uint32)
        keys[0] = (seeds_arr & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        # The loop adds ``key[j] + j``; fold the ``+ 1`` in now.
        keys[1] = (seeds_arr >> np.uint64(32)).astype(np.uint32) + np.uint32(1)
        _mix_group(mt, keys)
    for width, idx in sorted(odd.items()):
        group = _acquire_state(len(idx))
        keys = np.zeros((width, len(idx)), dtype=np.uint32)
        for col, i in enumerate(idx):
            for j, word in enumerate(_key_words(int(originals[i]))):
                keys[j, col] = np.uint32((word + j) & 0xFFFFFFFF)
        _mix_group(group, keys)
        mt[:, idx] = group
    TIMERS.stop("seeding", timer_started)
    return mt


def _temper(words: "np.ndarray") -> None:
    """MT19937 output tempering, in place."""
    words ^= words >> np.uint32(11)
    words ^= (words << np.uint32(7)) & np.uint32(0x9D2C5680)
    words ^= (words << np.uint32(15)) & np.uint32(0xEFC60000)
    words ^= words >> np.uint32(18)


class MTStreamBank:
    """Lazily generated doubles from S independent CPython-MT streams.

    ``draws(idx)`` returns the *next* ``random()`` value of each selected
    stream, advancing only those cursors — exactly the consumption
    pattern of the per-ball walks.  Output is produced for all streams
    in lock-step blocks (a partial twist per block), amortizing the
    generation cost the same way the engine amortizes the round logic.
    """

    def __init__(self, seeds: Sequence[int], *, block: int = 4) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError("MTStreamBank requires numpy (pip install .[fast])")
        self._mt = seed_states(seeds)
        self._count = self._mt.shape[1]
        self._block = max(1, int(block))
        self._words_done = 0  # words of the current generation produced
        self._new: Optional["np.ndarray"] = None  # untempered next gen
        # Doubles buffer: (capacity, S) — row d is every stream's d-th
        # draw, so generation appends rows without transposing; capacity
        # doubles on demand so extends never re-copy.
        self._buf = np.empty((0, self._count), dtype=np.float64)
        self._produced = 0
        self.cursor = np.zeros(self._count, dtype=np.int64)

    # ------------------------------------------------------------- generation
    def _twist_rows(self, start: int, stop: int) -> "np.ndarray":
        """Untempered next-generation words ``start..stop`` (exclusive).

        Generated strictly in order into the preallocated generation
        buffer: rows below ``N - M`` read only the old state, higher
        rows also read freshly twisted words (already produced), and the
        final row pairs old word 623 with *new* word 0 — the wrap-around
        of the in-place reference loop.
        """
        mt = self._mt
        new = self._new
        if new is None:
            new = self._new = _acquire_state(self._count)
        upper = np.uint32(_UPPER)
        lower = np.uint32(_LOWER)
        one = np.uint32(1)
        matrix_a = np.uint32(_MATRIX_A)
        lo = start
        while lo < stop:
            if lo < _N - 1:
                hi = min(stop, _N - _M) if lo < _N - _M else min(stop, _N - 1)
                y = (mt[lo:hi] & upper) | (mt[lo + 1 : hi + 1] & lower)
                if hi <= _N - _M:
                    mixed = mt[lo + _M : hi + _M]
                else:
                    mixed = new[lo - (_N - _M) : hi - (_N - _M)]
            else:
                hi = _N
                y = (mt[_N - 1 :] & upper) | (new[0:1] & lower)
                mixed = new[_M - 1 : _M]
            out = new[lo:hi]
            np.right_shift(y, one, out=out)
            np.bitwise_xor(out, mixed, out=out)
            np.bitwise_and(y, one, out=y)
            np.multiply(y, matrix_a, out=y)
            np.bitwise_xor(out, y, out=out)
            lo = hi
        return new[start:stop]

    def _extend(self, doubles: int) -> None:
        """Produce ``doubles`` more values for every stream."""
        timer_started = TIMERS.start()
        while doubles > 0:
            take = min(doubles, DOUBLES_PER_GENERATION - self._words_done // 2)
            if take == 0:
                # Current generation exhausted: finish the twist (its tail
                # rows were never needed as output) and roll the state.
                if self._words_done < _N:
                    self._twist_rows(self._words_done, _N)
                self._mt = self._new
                self._new = None
                self._words_done = 0
                continue
            words = self._twist_rows(self._words_done, self._words_done + 2 * take).copy()
            self._words_done += 2 * take
            _temper(words)
            # CPython's random(): a = word0 >> 5, b = word1 >> 6,
            # (a * 2**26 + b) / 2**53 — correctly rounded by construction.
            a = (words[0::2] >> np.uint32(5)).astype(np.float64)
            b = (words[1::2] >> np.uint32(6)).astype(np.float64)
            if self._produced + take > self._buf.shape[0]:
                capacity = max(8, self._buf.shape[0] * 2, self._produced + take)
                grown = np.empty((capacity, self._count), dtype=np.float64)
                grown[: self._produced] = self._buf[: self._produced]
                self._buf = grown
            out = self._buf[self._produced : self._produced + take]
            np.multiply(a, 67108864.0, out=a)
            np.add(a, b, out=a)
            np.multiply(a, 1.0 / 9007199254740992.0, out=out)
            self._produced += take
            doubles -= take
        TIMERS.stop("twist", timer_started)

    # ------------------------------------------------------------ consumption
    def draws(self, idx: "np.ndarray") -> "np.ndarray":
        """The next double of each stream in ``idx`` (cursors advance)."""
        cur = self.cursor[idx]
        needed = int(cur.max(initial=-1)) + 1 if len(cur) else 0
        if needed > self._produced:
            self._extend(max(self._block, needed - self._produced))
        out = self._buf[cur, idx]
        self.cursor[idx] = cur + 1
        return out
