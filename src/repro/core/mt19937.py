"""Vectorized, bit-exact Mersenne-Twister streams for the stacked kernel.

The reference and columnar engines give every ball its own
:class:`random.Random` (CPython's C MT19937), seeded through
:func:`repro.sim.rng.derive_seed`.  A trial-stacked kernel needs the
*same* draws for tens of thousands of (trial, ball) streams at once —
one Python object and one ``random()`` call per draw is exactly the
interpreter cost it exists to amortize.

:class:`MTStreamBank` therefore reimplements the generator as NumPy
array passes over stacked state rows, one column per stream:

* seeding is CPython's ``init_by_array`` (the key is the seed's
  little-endian 32-bit words) advanced for all streams per step on a
  few rolling rows, with seeds batched *by key width* so unusual widths
  (sub-32-bit seeds, giant integers) still seed vectorized instead of
  one stream at a time;
* output words come from *partial* twists — a run consumes a few dozen
  doubles per stream, so only the needed rows of the next generation
  are ever computed, and a bank keeps only the ``2P + 1`` state rows
  the first ``P`` of them read (:data:`PREFIX_DOUBLES_PER_LEVEL`),
  seeding the whole 624-row state only for a stream that draws past
  them;
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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.instrumentation import TIMERS

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: MT19937 parameters (Matsumoto & Nishimura), as used by CPython.
_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF
#: ``init_by_array``'s two mixing multipliers.
_MIX1 = 1664525
_MIX2 = 1566083941

#: Doubles produced per generation (two 32-bit words per double).
DOUBLES_PER_GENERATION = _N // 2

#: Doubles per level of a bank's ``block`` (the tree height) that its
#: seeded prefix covers, up to ``(N - M) // 2``.  The most any stream
#: drew, over 60 seeds per stacked cell with every cell's trials
#: seeding one bank, was 31 doubles at n=256 (height 8), 43 at n=1024
#: (height 10, under ``sandwich``) and 50 at n=4096 (height 12); 57 in
#: a 2-trial n=65536 cell (height 16).  Six per level leaves more than
#: a third of headroom over each, so no benchmark bank seeds twice,
#: and keeps ~40% of the 624 rows at n=1024.
PREFIX_DOUBLES_PER_LEVEL = 6

_base_state_cache = None


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


def _init_by_array(keys: "np.ndarray", rows: Sequence[int]) -> "np.ndarray":
    """Rows ``rows`` of CPython's ``init_by_array`` state, one column per key.

    ``keys`` is the ``(W, G)`` key matrix (``W <= 624``) with
    ``key[j] + j`` pre-folded (the reference loop adds both); the result
    is ``(len(rows), G)``, its row ``k`` holding state row ``rows[k]``.

    For a key of at most 624 words the reference runs two loops over
    rows ``1..623``, each wrapping to row 1 once.  Loop 1 writes
    ``L[i] = (base[i] ^ f1(L[i-1])) + key`` and revisits row 1 as
    ``R = (L[1] ^ f1(L[623])) + key``.  Loop 2 writes
    ``F[2] = (L[2] ^ f2(R)) - 2``, then ``F[i] = (L[i] ^ f2(F[i-1])) - i``
    up to row 623, then ``F[1] = (R ^ f2(F[623])) - 1``; row 0 ends as
    ``0x80000000``.  Only ``R`` links the loops, so pass 1 runs loop 1
    on two rolling rows to reach it, and pass 2 recomputes ``L[i]``
    beside ``F[i-1]`` in one ``(2, G)`` array (seven ufunc calls a
    step), copying out just the rows asked for: nothing the size of the
    whole state is ever allocated.
    """
    width, count = keys.shape
    base = _base_state()
    krow = [keys[j] for j in range(width)]
    s30 = np.uint32(30)
    mix1 = np.uint32(_MIX1)

    def mixed(row: "np.ndarray", mult: Any, out: "np.ndarray") -> None:
        """``out = mult * (row ^ (row >> 30))``, the term both loops use."""
        np.right_shift(row, s30, out=out)
        np.bitwise_xor(out, row, out=out)
        np.multiply(out, mult, out=out)

    # Pass 1: loop 1 up to row 623, keeping row 1 for the revisit.  Its
    # first step is scalar arithmetic on base[0] folded into the key.
    b0 = int(base[0])
    head = int(base[1]) ^ ((_MIX1 * (b0 ^ (b0 >> 30))) & 0xFFFFFFFF)
    first = krow[0] + np.uint32(head)
    cur = first.copy()
    nxt = np.empty_like(first)
    for i in range(2, _N):
        mixed(cur, mix1, nxt)
        np.bitwise_xor(nxt, base[i], out=nxt)
        np.add(nxt, krow[(i - 1) % width], out=nxt)
        cur, nxt = nxt, cur
    revisit = nxt
    mixed(cur, mix1, revisit)
    np.bitwise_xor(revisit, first, out=revisit)
    np.add(revisit, krow[(_N - 1) % width], out=revisit)

    # Pass 2: row 0 of a pair is L[i], row 1 is F[i-1]; two pairs take
    # turns being read and written.
    out = np.empty((len(rows), count), dtype=np.uint32)
    slot = {row: k for k, row in enumerate(rows)}
    mults = np.array([[_MIX1], [_MIX2]], dtype=np.uint32)
    pairs: List[Tuple[Any, Any, Any]] = []
    for _ in range(2):
        buf = np.empty((2, count), dtype=np.uint32)
        pairs.append((buf, buf[0], buf[1]))
    pair, chain, fresh = pairs[0]
    mixed(first, mix1, chain)
    np.bitwise_xor(chain, base[2], out=chain)
    np.add(chain, krow[1 % width], out=chain)
    fresh[...] = revisit
    for i in range(2, _N):
        nxt_pair, nxt_chain, nxt_fresh = pairs[(i - 1) & 1]
        mixed(pair, mults, nxt_pair)
        np.bitwise_xor(nxt_fresh, chain, out=nxt_fresh)
        np.subtract(nxt_fresh, np.uint32(i), out=nxt_fresh)
        if i + 1 < _N:
            np.bitwise_xor(nxt_chain, base[i + 1], out=nxt_chain)
            np.add(nxt_chain, krow[i % width], out=nxt_chain)
        k = slot.get(i)
        if k is not None:
            out[k] = nxt_fresh
        pair, chain, fresh = nxt_pair, nxt_chain, nxt_fresh
    k = slot.get(1)
    if k is not None:
        row = out[k]
        mixed(fresh, np.uint32(_MIX2), row)
        np.bitwise_xor(row, revisit, out=row)
        np.subtract(row, np.uint32(1), out=row)
    k = slot.get(0)
    if k is not None:
        out[k] = np.uint32(0x80000000)
    return out


def prefix_rows(prefix: int) -> List[int]:
    """The state rows the twist of output words ``0..prefix-1`` reads:
    ``0..prefix`` and ``M..M+prefix-1``, for ``prefix <= N - M``."""
    if not 0 <= prefix <= _N - _M:
        raise ValueError(f"a seeded prefix is 0..{_N - _M} words, got {prefix}")
    return list(range(prefix + 1)) + list(range(_M, _M + prefix))


def seed_states(seeds: Sequence[int], prefix: Optional[int] = None) -> "np.ndarray":
    """CPython ``Random(seed)`` states for every seed, one u32 column each.

    Without ``prefix`` the whole ``(624, S)`` state; with it only the
    ``2 * prefix + 1`` rows of :func:`prefix_rows`, in that order —
    enough to twist the next generation's first ``prefix`` words.

    The ubiquitous two-word keys (64-bit :func:`~repro.sim.rng.derive_seed`
    outputs) run as one pass over every column; any other key width —
    sub-32-bit seeds, >=2**64 integers — is batched per width and
    seeded through the same vectorized loops on its column group, so a
    bank is never reduced to stream-at-a-time scalar reproduction.  A
    key wider than the 624-word state (a seed of ``2**19968`` or more)
    raises :class:`ValueError`.
    """
    timer_started = TIMERS.start()
    rows = list(range(_N)) if prefix is None else prefix_rows(prefix)
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
    if odd and max(odd) > _N:
        raise ValueError(f"a seed's key is at most {_N} 32-bit words, got {max(odd)}")
    count = len(seeds_arr)
    odd_count = sum(len(idx) for idx in odd.values())
    if odd_count < count:
        # Two-word common case over the whole matrix; odd-width columns
        # are recomputed by their group below (the wasted mixing is
        # cheaper than excising scattered columns first).
        keys = np.empty((2, count), dtype=np.uint32)
        keys[0] = (seeds_arr & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        # The loop adds ``key[j] + j``; fold the ``+ 1`` in now.
        keys[1] = (seeds_arr >> np.uint64(32)).astype(np.uint32) + np.uint32(1)
        mt = _init_by_array(keys, rows)
    else:
        mt = np.empty((len(rows), count), dtype=np.uint32)
    for width, idx in sorted(odd.items()):
        keys = np.zeros((width, len(idx)), dtype=np.uint32)
        for col, i in enumerate(idx):
            for j, word in enumerate(_key_words(int(originals[i]))):
                keys[j, col] = np.uint32((word + j) & 0xFFFFFFFF)
        mt[:, idx] = _init_by_array(keys, rows)
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

    A fresh bank holds :attr:`prefix` words' worth of state per stream
    (the ``2 * prefix + 1`` rows of :func:`prefix_rows`), ``prefix``
    being two words per double for :data:`PREFIX_DOUBLES_PER_LEVEL`
    doubles per ``block`` level; the first draw past them seeds every
    stream's whole state through :func:`seed_states` and the bank goes
    on from there with full 624-row generations.
    """

    def __init__(self, seeds: Sequence[int], *, block: int = 4) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError("MTStreamBank requires numpy (pip install .[fast])")
        self._seeds = seeds
        self._block = max(1, int(block))
        doubles = min(PREFIX_DOUBLES_PER_LEVEL * self._block, (_N - _M) // 2)
        #: Next-generation words the stored state rows can twist.
        self.prefix = 2 * doubles
        self._mt = seed_states(seeds, self.prefix)
        self._count = self._mt.shape[1]
        self._words_done = 0  # words of the current generation produced
        self._new: Optional["np.ndarray"] = None  # untempered next gen
        # Doubles buffer: (capacity, S) — row d is every stream's d-th
        # draw, so generation appends rows without transposing.  Pages
        # are touched only as rows fill, so it starts at the prefix's
        # doubles; past them capacity doubles so extends never re-copy.
        self._buf = np.empty((doubles, self._count), dtype=np.float64)
        self._produced = 0
        self.cursor = np.zeros(self._count, dtype=np.int64)

    # ------------------------------------------------------------- generation
    def _twist_rows(self, start: int, stop: int) -> "np.ndarray":
        """Untempered next-generation words ``start..stop`` (exclusive).

        Inside the seeded prefix they read only stored state rows and
        come back as a fresh array.  A whole state twists strictly in
        order into the generation buffer: rows below ``N - M`` read only
        the old state, higher rows also read freshly twisted words
        (already produced), and the final row pairs old word 623 with
        *new* word 0 — the wrap-around of the in-place reference loop.
        """
        mt = self._mt
        if self.prefix < _N:
            new = np.empty((stop - start, self._count), dtype=np.uint32)
            first, far = start, self.prefix + 1
        else:
            if self._new is None:
                self._new = np.empty((_N, self._count), dtype=np.uint32)
            new, first, far = self._new, 0, _M
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
                    mixed = mt[far + lo : far + hi]
                else:
                    mixed = new[lo - (_N - _M) : hi - (_N - _M)]
            else:
                hi = _N
                y = (mt[_N - 1 :] & upper) | (new[0:1] & lower)
                mixed = new[_M - 1 : _M]
            out = new[lo - first : hi - first]
            np.right_shift(y, one, out=out)
            np.bitwise_xor(out, mixed, out=out)
            np.bitwise_and(y, one, out=y)
            np.multiply(y, matrix_a, out=y)
            np.bitwise_xor(out, y, out=out)
            lo = hi
        return new[start - first : stop - first]

    def _seed_full(self) -> None:
        """Seed every stream's whole state: a draw has run past the
        prefix.  The generation's words so far are twisted again into
        the generation buffer the rest of it reads."""
        self._mt = seed_states(self._seeds)
        self.prefix = _N
        self._twist_rows(0, self._words_done)

    def _extend(self, doubles: int) -> None:
        """Produce ``doubles`` more values for every stream."""
        timer_started = TIMERS.start()
        while doubles > 0:
            take = min(doubles, (self.prefix - self._words_done) // 2)
            if take == 0:
                if self.prefix < _N:
                    self._seed_full()
                    continue
                # Current generation exhausted: finish the twist (its tail
                # rows were never needed as output) and roll the state.
                if self._words_done < _N:
                    self._twist_rows(self._words_done, _N)
                self._mt = self._new
                self._new = None
                self._words_done = 0
                continue
            words = self._twist_rows(self._words_done, self._words_done + 2 * take)
            if self._new is not None:  # keep the generation untempered
                words = words.copy()
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
            # A block stops at the end of the prefix (or generation) it
            # starts in, unless the draw itself needs more.
            room = (self.prefix - self._words_done) // 2
            block = min(self._block, room) if room else self._block
            self._extend(max(needed - self._produced, block))
        out = self._buf[cur, idx]
        self.cursor[idx] = cur + 1
        return out
