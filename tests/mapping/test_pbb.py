"""Unit tests for the partial branch-and-bound baseline."""

from __future__ import annotations

import pytest

from repro.errors import MappingError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.exhaustive import exhaustive_best_mapping
from repro.mapping.pbb import pbb


class TestPbb:
    def test_complete(self, square_graph, mesh2x2):
        result = pbb(square_graph, mesh2x2)
        assert result.mapping.is_complete
        assert result.algorithm == "pbb"

    def test_optimal_on_tiny_instance(self, square_graph, mesh2x2):
        # With an unconstrained queue the search is exhaustive
        oracle = exhaustive_best_mapping(square_graph, mesh2x2)
        result = pbb(square_graph, mesh2x2, max_queue=100000)
        assert result.comm_cost == pytest.approx(oracle.comm_cost)

    def test_optimal_on_line_graph(self, tiny_graph, mesh3x3):
        oracle = exhaustive_best_mapping(tiny_graph, mesh3x3)
        result = pbb(tiny_graph, mesh3x3, max_queue=100000)
        assert result.comm_cost == pytest.approx(oracle.comm_cost)

    def test_queue_bound_degrades_gracefully(self):
        from repro.graphs.random_graphs import random_core_graph

        graph = random_core_graph(12, seed=3)
        mesh = NoCTopology.smallest_mesh_for(12, link_bandwidth=graph.total_bandwidth())
        wide = pbb(graph, mesh, max_queue=5000)
        narrow = pbb(graph, mesh, max_queue=2)
        assert wide.comm_cost <= narrow.comm_cost
        assert narrow.stats["queue_overflowed"]

    def test_invalid_queue(self, square_graph, mesh2x2):
        with pytest.raises(MappingError, match="max_queue"):
            pbb(square_graph, mesh2x2, max_queue=0)

    def test_empty_rejected(self, mesh2x2):
        with pytest.raises(MappingError):
            pbb(CoreGraph(), mesh2x2)

    def test_cheap_bounds_also_work(self, square_graph, mesh2x2):
        result = pbb(square_graph, mesh2x2, tight_bounds=False, max_queue=100000)
        oracle = exhaustive_best_mapping(square_graph, mesh2x2)
        assert result.comm_cost == pytest.approx(oracle.comm_cost)

    def test_stats_present(self, square_graph, mesh2x2):
        result = pbb(square_graph, mesh2x2)
        assert result.stats["expansions"] > 0
        assert "tight_bounds" in result.stats

    def test_deterministic(self, mesh3x3):
        from repro.graphs.random_graphs import random_core_graph

        graph = random_core_graph(8, seed=9)
        mesh = mesh3x3.with_uniform_bandwidth(graph.total_bandwidth())
        assert pbb(graph, mesh).mapping == pbb(graph, mesh).mapping

    @pytest.mark.parametrize("tight_bounds", [True, False])
    def test_never_branches_onto_a_failed_router(self, tight_bounds):
        """A core without flows costs the same anywhere, so only the node
        set — not an UNREACHABLE distance — keeps it off a dead router."""
        graph = CoreGraph.from_flows([("a", "b", 100), ("c", "d", 90)])
        graph.add_core("idle")
        mesh = NoCTopology.mesh(3, 3, link_bandwidth=1000.0).with_failed_routers([0])
        result = pbb(graph, mesh, tight_bounds=tight_bounds)
        assert result.feasible and result.comm_cost == 190.0
        assert 0 not in result.mapping.placement.values()

    def test_failed_router_leaves_every_survivor_a_root(self, mesh2x2):
        """Router 0 is the 2x2 mesh's only symmetry-class representative."""
        graph = CoreGraph.from_flows([("a", "b", 100), ("b", "c", 50)])
        result = pbb(graph, mesh2x2.with_failed_routers([0]))
        assert result.feasible and result.comm_cost == 150.0

    @pytest.mark.parametrize(
        "fabric,message",
        [
            (NoCTopology.mesh(2, 2), "5 cores cannot map onto 4 nodes"),
            (
                NoCTopology.mesh(3, 3).with_failed_routers([4, 5, 6, 7, 8]),
                "5 cores cannot map onto the 4 surviving nodes",
            ),
        ],
    )
    def test_more_cores_than_surviving_routers_is_a_mapping_error(
        self, fabric, message
    ):
        """Checked before the search, as every other mapper does."""
        from repro.graphs.random_graphs import random_core_graph

        with pytest.raises(MappingError, match=message):
            pbb(random_core_graph(5, seed=1), fabric)


class TestExhaustive:
    def test_line_on_2x2(self, tiny_graph, mesh2x2):
        result = exhaustive_best_mapping(tiny_graph, mesh2x2)
        # optimal: a-b and b-c each at distance 1 -> cost 150
        assert result.comm_cost == pytest.approx(150.0)

    def test_square_cycle_cost(self, square_graph, mesh2x2):
        result = exhaustive_best_mapping(square_graph, mesh2x2)
        assert result.comm_cost == pytest.approx(square_graph.total_bandwidth())

    def test_size_guard(self, mesh4x4):
        from repro.graphs.random_graphs import random_core_graph

        graph = random_core_graph(16, seed=1)
        with pytest.raises(MappingError, match="too large"):
            exhaustive_best_mapping(graph, mesh4x4)

    def test_empty_rejected(self, mesh2x2):
        with pytest.raises(MappingError):
            exhaustive_best_mapping(CoreGraph(), mesh2x2)
