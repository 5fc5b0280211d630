"""Unit tests for the deterministic rank-descent baseline (Balls-into-Leaves
with the ``rank`` path policy)."""

from __future__ import annotations

from repro.adversary.splitter import HalfSplitAdversary
from repro.core.balls_into_leaves import build_balls_into_leaves
from repro.core.config import BallsIntoLeavesConfig
from repro.ids import sparse_ids
from repro.sim.simulator import Simulation
from repro.sim.runner import run_renaming


class TestRankDescent:
    def test_failure_free_one_phase(self):
        run = run_renaming("rank-descent", sparse_ids(32), seed=0)
        assert run.rounds == 3

    def test_names_preserve_label_order_without_failures(self):
        """Deterministic rank paths are order-preserving when fault-free."""
        ids = sparse_ids(16)
        run = run_renaming("rank-descent", ids, seed=0)
        assert run.names == {pid: rank for rank, pid in enumerate(sorted(ids))}

    def test_determinism_no_seed_sensitivity(self):
        """Rank descent ignores randomness entirely."""
        first = run_renaming("rank-descent", sparse_ids(16), seed=1)
        second = run_renaming("rank-descent", sparse_ids(16), seed=999)
        assert first.names == second.names
        assert first.rounds == second.rounds

    def test_correct_under_half_split(self):
        adversary = HalfSplitAdversary(
            rounds=frozenset({1, 3, 5, 7, 9}), seed=0
        )
        # run_renaming checks the renaming spec (check=True by default).
        run = run_renaming(
            "rank-descent",
            sparse_ids(32),
            seed=0,
            adversary=adversary,
            kernel="reference",
            max_rounds=400,
        )
        assert len(run.names) == 32 - run.failures

    def test_builder_exposes_store(self):
        procs, store = build_balls_into_leaves(
            sparse_ids(4), config=BallsIntoLeavesConfig(path_policy="rank")
        )
        Simulation(procs, max_rounds=64).run()
        reference = store.view_of(procs[0].pid)
        assert reference.all_at_leaves()
