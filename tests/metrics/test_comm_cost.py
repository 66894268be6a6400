"""Unit tests for Equation 7 and the swap delta."""

from __future__ import annotations

import itertools

import pytest

from repro.mapping.base import Mapping
from repro.metrics.comm_cost import (
    average_hop_count,
    comm_cost,
    swap_cost_delta,
)


class TestCommCost:
    def test_hand_computed(self, tiny_graph, mesh2x2):
        # a@0, b@3 (distance 2), c@1 (distance 1 from b)
        mapping = Mapping(tiny_graph, mesh2x2, {"a": 0, "b": 3, "c": 1})
        assert comm_cost(mapping) == 100.0 * 2 + 50.0 * 1

    def test_zero_for_no_flows(self, mesh2x2):
        from repro.graphs.core_graph import CoreGraph

        graph = CoreGraph()
        graph.add_core("a")
        mapping = Mapping(graph, mesh2x2, {"a": 0})
        assert comm_cost(mapping) == 0.0

    def test_average_hop_count(self, tiny_graph, mesh2x2):
        mapping = Mapping(tiny_graph, mesh2x2, {"a": 0, "b": 3, "c": 1})
        # (100*2 + 50*1) / 150
        assert average_hop_count(mapping) == pytest.approx(250.0 / 150.0)

    def test_average_hop_empty(self, mesh2x2):
        from repro.graphs.core_graph import CoreGraph

        graph = CoreGraph()
        graph.add_core("a")
        mapping = Mapping(graph, mesh2x2, {"a": 0})
        assert average_hop_count(mapping) == 0.0


class TestSwapDelta:
    def test_matches_full_recompute(self, square_graph, mesh3x3):
        mapping = Mapping(
            square_graph, mesh3x3, {"a": 0, "b": 4, "c": 8, "d": 2}
        )
        base = comm_cost(mapping)
        for x, y in itertools.combinations(range(9), 2):
            delta = swap_cost_delta(mapping, x, y)
            assert delta == pytest.approx(comm_cost(mapping.swapped(x, y)) - base)

    def test_empty_empty_swap_is_zero(self, tiny_graph, mesh3x3):
        mapping = Mapping(tiny_graph, mesh3x3, {"a": 0, "b": 1, "c": 2})
        assert swap_cost_delta(mapping, 5, 8) == 0.0

    def test_core_to_empty_move(self, tiny_graph, mesh3x3):
        mapping = Mapping(tiny_graph, mesh3x3, {"a": 0, "b": 1, "c": 2})
        delta = swap_cost_delta(mapping, 0, 8)  # move "a" far away
        expected = comm_cost(mapping.swapped(0, 8)) - comm_cost(mapping)
        assert delta == pytest.approx(expected)

    def test_swapped_pair_edge_unchanged(self, mesh3x3):
        from repro.graphs.core_graph import CoreGraph

        graph = CoreGraph()
        graph.add_traffic("a", "b", 100.0)
        mapping = Mapping(graph, mesh3x3, {"a": 0, "b": 1})
        # swapping the two endpoints leaves their distance unchanged
        assert swap_cost_delta(mapping, 0, 1) == 0.0
