"""The config seam: one test per ``REPRO_*`` knob.

Every reader must be a per-call environment read (never cached), so the
CLI and tests can set a knob at any point; and validation must be loud
for knobs that error (stream budgets) and forgiving for knobs that may
only cost speed (thread fanout, SHA backend).
"""

import pytest

from repro import config
from repro.errors import ConfigurationError


class TestVecThreads:
    def test_default_is_cpu_count_at_least_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_VEC_THREADS", raising=False)
        assert config.vec_threads() >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_THREADS", "3")
        assert config.vec_threads() == 3

    def test_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_THREADS", "0")
        assert config.vec_threads() == 1

    def test_junk_degrades_to_serial_not_error(self, monkeypatch):
        # The knob cannot change results, so a typo must not kill a run.
        monkeypatch.setenv("REPRO_VEC_THREADS", "many")
        assert config.vec_threads() == 1

    def test_setter_writes_the_environment(self, monkeypatch):
        # setenv first so monkeypatch restores the key after the direct
        # environment write the setter performs.
        monkeypatch.setenv("REPRO_VEC_THREADS", "1")
        config.set_vec_threads(5)
        assert config.vec_threads() == 5

    def test_setter_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            config.set_vec_threads(0)


class TestVecMaxStreams:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VEC_MAX_STREAMS", raising=False)
        assert config.vec_max_streams() == config.DEFAULT_MAX_STREAMS == 1 << 17

    def test_env_override_read_per_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_MAX_STREAMS", "48")
        assert config.vec_max_streams() == 48
        monkeypatch.setenv("REPRO_VEC_MAX_STREAMS", "64")
        assert config.vec_max_streams() == 64

    def test_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_MAX_STREAMS", "-7")
        assert config.vec_max_streams() == 1

    def test_junk_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_MAX_STREAMS", "lots")
        with pytest.raises(ConfigurationError, match="REPRO_VEC_MAX_STREAMS"):
            config.vec_max_streams()


class TestMinStreams:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VEC_MIN_STREAMS", raising=False)
        assert (
            config.min_streams()
            == config.DEFAULT_MIN_STREAMS
            == 1 << 10
        )

    def test_zero_means_always_stack(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_MIN_STREAMS", "0")
        assert config.min_streams() == 0

    def test_clamped_to_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_MIN_STREAMS", "-5")
        assert config.min_streams() == 0

    def test_junk_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_MIN_STREAMS", "x")
        with pytest.raises(ConfigurationError):
            config.min_streams()

