"""Unit tests for identifiers, helpers, and the exception hierarchy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors
from repro.ids import interleave, require_distinct, sparse_ids, string_ids

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestIds:
    def test_sparse_ids_distinct_and_sparse(self):
        ids = sparse_ids(100)
        assert len(set(ids)) == 100
        assert all(b - a > 1 for a, b in zip(ids, ids[1:]))

    def test_sparse_ids_empty(self):
        assert sparse_ids(0) == []

    def test_sparse_ids_rejects_negative(self):
        with pytest.raises(ValueError):
            sparse_ids(-1)

    def test_string_ids_sortable_and_distinct(self):
        ids = string_ids(12)
        assert ids == sorted(ids)
        assert len(set(ids)) == 12

    def test_string_ids_prefix(self):
        assert string_ids(1, prefix="node")[0].startswith("node-")

    def test_require_distinct_accepts(self):
        require_distinct([1, 2, 3])

    def test_require_distinct_rejects(self):
        with pytest.raises(ValueError):
            require_distinct([1, 2, 1])

    def test_interleave(self):
        assert interleave([1, 3], [2, 4]) == [1, 2, 3, 4]
        assert interleave([1], [2, 4, 6]) == [1, 2, 4, 6]


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.SimulationError,
            errors.ProtocolViolation,
            errors.SpecViolation,
            errors.TreeError,
            errors.CapacityError,
            errors.UnknownBallError,
            errors.ExperimentError,
            errors.UnknownExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_round_limit_carries_context(self):
        error = errors.RoundLimitExceeded(10, 3)
        assert error.limit == 10
        assert error.alive == 3
        assert "10" in str(error)

    def test_unknown_experiment_lists_known(self):
        error = errors.UnknownExperimentError("EXP-X", ["EXP-A", "EXP-B"])
        assert "EXP-A" in str(error)


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_loads_no_engine(self):
        probe = "import sys, repro; print('repro.sim.batch' in sys.modules)"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (SRC, env.get("PYTHONPATH")) if part
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "False"

    def test_dir_lists_every_export(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert [name for name in repro.__all__ if name not in namespace] == []

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert getattr(repro, "no_such_name", None) is None

    def test_algorithms_registry(self):
        assert set(repro.ALGORITHMS) == {
            "balls-into-leaves",
            "early-terminating",
            "rank-descent",
            "leftmost",
            "flood",
            "approx-agreement",
            "parallel-retry",
        }
