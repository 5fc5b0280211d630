"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ids import sparse_ids
from repro.tree.local_view import LocalTreeView
from repro.tree.topology import Topology


@pytest.fixture
def pool_starts(monkeypatch) -> list:
    """Every multiprocessing pool started while the test runs, in order."""
    import multiprocessing.pool

    started: list = []
    init = multiprocessing.pool.Pool.__init__

    def spy(pool, *args, **kwargs):
        started.append(pool)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", spy)
    return started


@pytest.fixture
def topo8() -> Topology:
    """An 8-leaf topology (depth 3)."""
    return Topology(8)


@pytest.fixture
def topo16() -> Topology:
    """A 16-leaf topology (depth 4)."""
    return Topology(16)


@pytest.fixture
def view8(topo8: Topology) -> LocalTreeView:
    """An 8-leaf view with 8 integer balls at the root."""
    return LocalTreeView(topo8, range(8))


@pytest.fixture
def ids16() -> list:
    """16 sparse original identifiers."""
    return sparse_ids(16)
