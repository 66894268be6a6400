"""Shared fixtures: small graphs and meshes used across the suite."""

from __future__ import annotations

import pytest

from repro.graphs.commodities import Commodity
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult
from repro.simnoc import SimConfig, build_network


@pytest.fixture
def tiny_graph() -> CoreGraph:
    """Three cores in a line: a -100-> b -50-> c."""
    graph = CoreGraph(name="tiny")
    graph.add_traffic("a", "b", 100.0)
    graph.add_traffic("b", "c", 50.0)
    return graph


@pytest.fixture
def square_graph() -> CoreGraph:
    """Four cores in a weighted cycle (unique optimal placement shape)."""
    graph = CoreGraph(name="square")
    graph.add_traffic("a", "b", 100.0)
    graph.add_traffic("b", "c", 80.0)
    graph.add_traffic("c", "d", 60.0)
    graph.add_traffic("d", "a", 40.0)
    return graph


@pytest.fixture
def mesh2x2() -> NoCTopology:
    return NoCTopology.mesh(2, 2, link_bandwidth=1000.0)


@pytest.fixture
def mesh3x3() -> NoCTopology:
    return NoCTopology.mesh(3, 3, link_bandwidth=1000.0)


@pytest.fixture
def mesh4x4() -> NoCTopology:
    return NoCTopology.mesh(4, 4, link_bandwidth=1000.0)


@pytest.fixture
def torus3x3() -> NoCTopology:
    return NoCTopology.torus_grid(3, 3, link_bandwidth=1000.0)


@pytest.fixture
def deadlocking_ring():
    """``make(num_vcs=1)`` builds a 4-node ring whose four 16-flit packets each
    hold the 2-flit buffer the next one waits for: clockwise routes close the
    dependency cycle and every engine stalls for good within 40 cycles."""

    def make(num_vcs: int = 1):
        nodes = 4
        topology = NoCTopology.torus_grid(nodes, 1, link_bandwidth=1600.0)
        commodities = [
            Commodity(i, f"c{i}", f"c{(i - 1) % nodes}", i, (i - 1) % nodes, 700.0)
            for i in range(nodes)
        ]
        clockwise = {
            i: [(i + hop) % nodes for hop in range(nodes)] for i in range(nodes)
        }
        routing = RoutingResult(topology, commodities, flows={}, paths=clockwise)
        config = SimConfig(
            buffer_depth=2,
            warmup_cycles=0,
            measure_cycles=60_000,
            drain_cycles=0,
            num_vcs=num_vcs,
            vc_buffer_depth=2 if num_vcs > 1 else None,
        )
        return build_network(topology, commodities, routing, config)

    return make
