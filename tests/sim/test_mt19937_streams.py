"""The vectorized MT19937 bank against CPython's ``random.Random``.

Everything downstream (the trial-stacked kernel's identity with the
per-trial kernels, which the differential oracle in
``tests/test_oracle.py`` checks) rests on
:class:`repro.core.mt19937.MTStreamBank` reproducing CPython's generator
bit for bit: seeding (``init_by_array`` over the seed's 32-bit words),
the twist, the tempering, and the two-word double assembly.  These tests
pin each of those against the C implementation directly.

The whole module skips when NumPy is absent (the bank is part of the
``.[fast]`` extra); the no-NumPy CI leg instead asserts the fallback
behavior in ``tests/sim/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.mt19937 import HAVE_NUMPY

if not HAVE_NUMPY:
    pytest.skip("numpy not installed (the .[fast] extra)", allow_module_level=True)

import numpy as np

from repro.core import mt19937
from repro.core.mt19937 import (
    DOUBLES_PER_GENERATION,
    PREFIX_DOUBLES_PER_LEVEL,
    MTStreamBank,
    prefix_rows,
    seed_states,
)
from repro.core.vectorized import derive_ball_seeds
from repro.ids import sparse_ids, string_ids
from repro.sim.rng import derive_seed

#: Seed shapes with different key-word counts: tiny (1-word keys),
#: boundary values, typical 64-bit derive_seed outputs, and 3-word keys;
#: each width seeds as its own column group.
SEED_SHAPES = [
    0,
    1,
    3,
    12345,
    2**31,
    2**32 - 1,
    2**32,
    2**32 + 1,
    2**40 + 7,
    2**63 + 11,
    2**64 - 1,
    2**64,
    2**64 + 99,
    98765432101234567,
]


class TestSeedStates:
    def test_states_match_cpython_for_every_seed_shape(self):
        states = seed_states(SEED_SHAPES)
        for column, seed in enumerate(SEED_SHAPES):
            expected = random.Random(seed).getstate()[1][:-1]
            assert states[:, column].tolist() == list(expected), seed

    def test_uint64_array_input_matches_list_input(self):
        seeds = [2**32, 2**40 + 7, 7, 2**63 + 1]
        as_array = seed_states(np.array(seeds, dtype=np.uint64))
        as_list = seed_states(seeds)
        assert (as_array == as_list).all()

    @pytest.mark.parametrize("prefix", [0, 1, 60, 227])
    def test_a_prefix_returns_just_its_rows(self, prefix):
        states = seed_states(SEED_SHAPES)
        rows = prefix_rows(prefix)
        assert len(rows) == 2 * prefix + 1
        assert (seed_states(SEED_SHAPES, prefix) == states[rows]).all()

    def test_prefix_past_the_untouched_rows_raises(self):
        with pytest.raises(ValueError):
            seed_states([5], 228)

    def test_a_624_word_key_seeds_like_cpython(self):
        seed = 2 ** (32 * 623) + 12345
        expected = random.Random(seed).getstate()[1][:-1]
        assert seed_states([seed])[:, 0].tolist() == list(expected)

    def test_a_key_wider_than_the_state_raises(self):
        with pytest.raises(ValueError, match="624"):
            seed_states([5, 2 ** (32 * 624)])


class TestStreamBank:
    def test_sequential_draws_match_random_random(self):
        bank = MTStreamBank(SEED_SHAPES)
        refs = [random.Random(seed) for seed in SEED_SHAPES]
        everyone = np.arange(len(SEED_SHAPES))
        for _ in range(50):
            got = bank.draws(everyone)
            for i, ref in enumerate(refs):
                assert got[i] == ref.random()

    def test_interleaved_uneven_consumption(self):
        """Streams advance independently, like per-ball walk draws."""
        seeds = SEED_SHAPES[:7]
        bank = MTStreamBank(seeds, block=3)
        refs = [random.Random(seed) for seed in seeds]
        chooser = random.Random(42)
        for _ in range(500):
            picked = sorted(chooser.sample(range(len(seeds)), chooser.randint(1, len(seeds))))
            got = bank.draws(np.array(picked))
            for value, i in zip(got, picked):
                assert value == refs[i].random()

    def test_generation_rollover_stays_identical(self):
        """> 312 doubles per stream forces full twists of the state."""
        seeds = [2**40 + 1, 5, derive_seed(9, "ball", 10097)]
        bank = MTStreamBank(seeds, block=16)
        refs = [random.Random(seed) for seed in seeds]
        everyone = np.arange(len(seeds))
        for _ in range(2 * DOUBLES_PER_GENERATION + 100):
            got = bank.draws(everyone)
            for i, ref in enumerate(refs):
                assert got[i] == ref.random()

    def test_empty_index_is_a_noop(self):
        bank = MTStreamBank([2**40 + 1])
        assert bank.draws(np.array([], dtype=np.int64)).size == 0
        assert bank.draws(np.array([0]))[0] == random.Random(2**40 + 1).random()


class TestSeededPrefix:
    """A fresh bank holds only the state rows its prefix's twist reads,
    and seeds the whole state again for the first draw past them."""

    @pytest.mark.parametrize("block", [1, 4, 10, 16, 40])
    def test_fresh_bank_state_bytes_per_stream(self, block):
        seeds = [derive_seed(3, "ball", i) for i in range(50)]
        bank = MTStreamBank(seeds, block=block)
        prefix = 2 * min(PREFIX_DOUBLES_PER_LEVEL * block, (624 - 397) // 2)
        assert bank.prefix == prefix <= 227
        assert bank._new is None
        assert bank._mt.nbytes <= (2 * prefix + 1) * 4 * len(seeds)

    @pytest.mark.parametrize("block", [3, 20])
    @pytest.mark.parametrize(
        "seeds",
        [[7], [2**40 + 7], [2**64 + 99], [7, 2**40 + 7, 2**64 + 99, 0]],
        ids=["1-word", "2-word", "3-word", "mixed"],
    )
    def test_prefix_end_then_full_seeding_then_rollover(
        self, seeds, block, monkeypatch
    ):
        calls = []
        real = mt19937.seed_states

        def counting(stream_seeds, prefix=None):
            calls.append(prefix)
            return real(stream_seeds, prefix)

        monkeypatch.setattr(mt19937, "seed_states", counting)
        bank = MTStreamBank(seeds, block=block)
        prefix = bank.prefix
        refs = [random.Random(seed) for seed in seeds]
        everyone = np.arange(len(seeds))

        def draw(times):
            for _ in range(times):
                got = bank.draws(everyone)
                assert got.tolist() == [ref.random() for ref in refs]

        draw(prefix // 2)  # every double the seeded rows can give
        assert calls == [prefix]
        assert bank._new is None  # the prefix twists into fresh arrays
        draw(1)  # one past them: the whole state is seeded again
        assert calls == [prefix, None]
        draw(DOUBLES_PER_GENERATION + 10)  # and a generation rolls over
        assert calls == [prefix, None]


class TestDeriveBallSeeds:
    @pytest.mark.parametrize("labels", [sparse_ids(9), string_ids(5), [3, -1, "x"]])
    def test_matches_derive_seed_exactly(self, labels):
        labels = sorted(labels, key=repr) if any(
            isinstance(label, str) for label in labels
        ) else sorted(labels)
        trial_seeds = [0, 7, 100_003, 2**40 + 5]
        got = derive_ball_seeds(trial_seeds, labels)
        expected = [
            derive_seed(seed, "ball", label)
            for seed in trial_seeds
            for label in labels
        ]
        assert got.tolist() == expected

    def test_a_subset_of_balls_derives_just_those_seeds(self):
        labels = sparse_ids(9)
        trial_seeds = [0, 7, 2**40 + 5]
        every = derive_ball_seeds(trial_seeds, labels)
        balls = np.array([26, 0, 9, 13, 9])
        got = derive_ball_seeds(trial_seeds, labels, balls)
        assert got.tolist() == every[balls].tolist()

    def test_streams_seeded_from_derived_seeds_match_engines(self):
        """End to end: bank draws equal the per-ball derive_rng draws."""
        from repro.sim.rng import derive_rng

        labels = sparse_ids(6)
        seeds = derive_ball_seeds([11, 12], labels)
        bank = MTStreamBank(seeds)
        everyone = np.arange(len(seeds))
        refs = [
            derive_rng(trial_seed, "ball", label)
            for trial_seed in (11, 12)
            for label in labels
        ]
        for _ in range(20):
            got = bank.draws(everyone)
            for i, ref in enumerate(refs):
                assert got[i] == ref.random()
