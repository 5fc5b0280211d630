"""Unit tests for the precomputed topology."""

from __future__ import annotations

import pytest

from repro.errors import TreeError
from repro.tree import node as nd
from repro.tree.topology import Topology


class TestShape:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
    def test_node_count_is_2n_minus_1(self, n):
        assert Topology(n).node_count == 2 * n - 1

    def test_height_of_power_of_two(self):
        assert Topology(16).height == 4
        assert Topology(1).height == 0

    def test_height_of_non_power_of_two(self):
        # 5 leaves: root splits 3|2, the 3-subtree splits 2|1 -> depth 3.
        assert Topology(5).height == 3

    def test_rejects_zero_leaves(self):
        with pytest.raises(TreeError):
            Topology(0)

    def test_leaves_enumerate_in_order(self, topo8):
        assert list(topo8.leaves()) == [(i, i + 1) for i in range(8)]

    def test_nodes_cover_all_intervals(self, topo8):
        nodes = set(topo8.nodes())
        assert (0, 8) in nodes
        assert all((i, i + 1) in nodes for i in range(8))


class TestLookups:
    def test_depth_of_root_and_leaves(self, topo8):
        assert topo8.depth(topo8.root) == 0
        assert all(topo8.depth(leaf) == 3 for leaf in topo8.leaves())

    def test_depth_rejects_foreign_node(self, topo8):
        with pytest.raises(TreeError):
            topo8.depth((1, 3))  # not an aligned interval of this tree

    def test_parent_inverts_children(self, topo8):
        for node in topo8.nodes():
            if node == topo8.root:
                continue
            left, right = nd.children(topo8.parent(node))
            assert node in (left, right)

    def test_parent_of_root_raises(self, topo8):
        with pytest.raises(TreeError):
            topo8.parent(topo8.root)

    def test_sibling_is_other_child(self, topo8):
        assert topo8.sibling((0, 4)) == (4, 8)
        assert topo8.sibling((4, 8)) == (0, 4)

    def test_is_node(self, topo8):
        assert topo8.is_node((0, 8))
        assert not topo8.is_node((1, 3))


class TestPaths:
    def test_ancestors_ends_at_root(self, topo8):
        chain = topo8.ancestors((2, 3))
        assert chain[0] == (2, 3)
        assert chain[-1] == topo8.root
        assert len(chain) == 4

    def test_path_down_is_inclusive(self, topo8):
        path = topo8.path_down(topo8.root, (5, 6))
        assert path[0] == topo8.root
        assert path[-1] == (5, 6)
        for parent, child in zip(path, path[1:]):
            assert nd.contains(parent, child)
            assert topo8.parent(child) == parent

    def test_path_down_from_inner_node(self, topo8):
        path = topo8.path_down((4, 8), (7, 8))
        assert path == [(4, 8), (6, 8), (7, 8)]

    def test_path_down_rejects_non_descendant(self, topo8):
        with pytest.raises(TreeError):
            topo8.path_down((0, 4), (5, 6))

    def test_path_to_leaf_matches_path_down(self, topo8):
        assert topo8.path_to_leaf(topo8.root, 5) == tuple(
            topo8.path_down(topo8.root, (5, 6))
        )

    @pytest.mark.parametrize("n", [3, 5, 7, 12])
    def test_every_leaf_reachable_in_uneven_trees(self, n):
        topo = Topology(n)
        for rank in range(n):
            path = topo.path_to_leaf(topo.root, rank)
            assert path[-1] == (rank, rank + 1)


class TestCachedTopologyReuse:
    """The process-wide cache: batch trials share, deep sweeps stay bounded."""

    def test_same_n_returns_the_same_instance(self):
        from repro.tree.topology import cached_topology

        assert cached_topology(37) is cached_topology(37)

    def test_batch_trials_of_one_size_build_one_topology(self, monkeypatch):
        """A seed sweep must never rebuild the topology per trial."""
        from repro.sim.batch import ScenarioMatrix, run_batch
        from repro.tree import topology as topo_module

        built = []
        original = topo_module.Topology.__init__

        def counting(self, n):
            built.append(n)
            original(self, n)

        monkeypatch.setattr(topo_module.Topology, "__init__", counting)
        topo_module.cached_topology.cache_clear()
        from repro.core.vectorized import HAVE_NUMPY, vectorized_topology

        if HAVE_NUMPY:
            # The stacked engine's ndarray cache wraps cached_topology;
            # a pre-warmed entry would hide the rebuild being counted.
            vectorized_topology.cache_clear()
        run_batch(ScenarioMatrix.build(["balls-into-leaves"], [23], trials=6))
        assert built == [23]

    def test_cache_is_lru_bounded(self):
        from repro.tree.topology import cached_topology

        cached_topology.cache_clear()
        for n in range(1, 41):
            cached_topology(n)
        info = cached_topology.cache_info()
        assert info.currsize <= info.maxsize <= 16
