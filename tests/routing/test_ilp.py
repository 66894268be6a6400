"""Unit tests for the exact ILP single-path router."""

from __future__ import annotations

import pytest

from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.base import path_links
from repro.routing.ilp import ilp_single_path_routing
from repro.routing.min_path import min_path_routing


def _commodity(index, src, dst, value):
    return Commodity(index, f"s{index}", f"d{index}", src, dst, value)


class TestIlpRouting:
    def test_single_commodity_trivial(self, mesh3x3):
        load, routing = ilp_single_path_routing(mesh3x3, [_commodity(0, 0, 1, 10.0)])
        assert load == pytest.approx(10.0)
        assert routing.paths[0] == [0, 1]

    def test_parallel_flows_use_disjoint_paths(self, mesh3x3):
        commodities = [_commodity(0, 0, 4, 10.0), _commodity(1, 0, 4, 10.0)]
        load, routing = ilp_single_path_routing(mesh3x3, commodities)
        assert load == pytest.approx(10.0)
        links0 = set(path_links(routing.paths[0]))
        links1 = set(path_links(routing.paths[1]))
        assert links0.isdisjoint(links1)

    def test_paths_are_minimal(self, mesh4x4):
        commodities = [
            _commodity(0, 0, 15, 10.0),
            _commodity(1, 12, 3, 8.0),
            _commodity(2, 0, 3, 6.0),
        ]
        _load, routing = ilp_single_path_routing(mesh4x4, commodities)
        for commodity in commodities:
            path = routing.paths[commodity.index]
            assert len(path) - 1 == mesh4x4.distance(
                commodity.src_node, commodity.dst_node
            )

    def test_never_worse_than_heuristic(self, mesh4x4):
        commodities = [
            _commodity(0, 0, 15, 9.0),
            _commodity(1, 3, 12, 9.0),
            _commodity(2, 1, 14, 5.0),
            _commodity(3, 4, 11, 5.0),
        ]
        heuristic = min_path_routing(mesh4x4, commodities).max_link_load()
        ilp_load, _ = ilp_single_path_routing(mesh4x4, commodities)
        assert ilp_load <= heuristic + 1e-6

    def test_forced_sharing(self, mesh3x3):
        # two flows into the same corner must share one of its two in-links
        commodities = [_commodity(0, 1, 0, 10.0), _commodity(1, 3, 0, 10.0)]
        load, _ = ilp_single_path_routing(mesh3x3, commodities)
        assert load == pytest.approx(10.0)  # each takes its own in-link

    def test_path_limit_enforced(self, mesh4x4):
        with pytest.raises(Exception):  # GraphError via enumerate limit
            ilp_single_path_routing(mesh4x4, [_commodity(0, 0, 15, 1.0)], path_limit=3)

    def test_no_commodities_load_nothing(self):
        # As the MCF solvers answer an app without traffic: 0, no solve.
        mesh = NoCTopology.mesh(2, 2)
        load, routing = ilp_single_path_routing(mesh, [])
        assert load == 0.0
        assert (routing.topology, routing.commodities) == (mesh, [])
        assert (routing.flows, routing.paths) == ({}, {})
        assert routing.max_link_load() == 0.0
