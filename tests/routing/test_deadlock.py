"""Unit tests for channel-dependency-graph deadlock analysis."""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import FaultError
from repro.faults import reroute
from repro.graphs.commodities import Commodity, build_commodities
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult
from repro.routing.deadlock import (
    channel_dependency_graph,
    count_dependencies,
    find_cycle,
    is_deadlock_free,
)
from repro.routing.dimension_ordered import xy_routing
from repro.routing.min_path import min_path_routing
from repro.routing.split import solve_min_congestion


def _commodity(index, src, dst, value=10.0):
    return Commodity(index, f"s{index}", f"d{index}", src, dst, value)


class TestCdgConstruction:
    def test_nodes_are_links(self, mesh3x3):
        routing = xy_routing(mesh3x3, [_commodity(0, 0, 8)])
        graph = channel_dependency_graph(routing)
        assert graph.number_of_nodes() == mesh3x3.num_links

    def test_edges_follow_paths(self, mesh3x3):
        routing = RoutingResult.from_paths(
            mesh3x3, [_commodity(0, 0, 2)], {0: [0, 1, 2]}, "t"
        )
        graph = channel_dependency_graph(routing)
        assert graph.has_edge((0, 1), (1, 2))
        assert graph.number_of_edges() == 1

    def test_count_dependencies(self, mesh3x3):
        routing = RoutingResult.from_paths(
            mesh3x3, [_commodity(0, 0, 8)], {0: [0, 1, 2, 5, 8]}, "t"
        )
        assert count_dependencies(routing) == 3


class TestXyDeadlockFreedom:
    def test_all_pairs_xy_is_acyclic(self, mesh4x4):
        """The classical result: dimension-ordered routing cannot deadlock."""
        commodities = [
            _commodity(len_ := i * mesh4x4.num_nodes + j, i, j)
            for i in mesh4x4.nodes
            for j in mesh4x4.nodes
            if i != j
        ]
        # reindex commodities 0..n-1
        commodities = [
            Commodity(k, c.src_core, c.dst_core, c.src_node, c.dst_node, c.value)
            for k, c in enumerate(commodities)
        ]
        routing = xy_routing(mesh4x4, commodities)
        assert is_deadlock_free(routing)

    def test_app_xy_routing_acyclic(self, mesh4x4):
        from repro.apps import vopd
        from repro.mapping import nmap_single_path

        app = vopd()
        mapping = nmap_single_path(app, mesh4x4.with_uniform_bandwidth(1e5)).mapping
        commodities = build_commodities(app, mapping)
        assert is_deadlock_free(xy_routing(mesh4x4, commodities))


class TestCycleDetection:
    def test_hand_built_cycle_found(self, mesh2x2):
        """Four packets turning around the 2x2 ring create the textbook cycle."""
        commodities = [
            _commodity(0, 0, 3),  # will route 0->1->3
            _commodity(1, 1, 2),  # 1->3->2
            _commodity(2, 3, 0),  # 3->2->0
            _commodity(3, 2, 1),  # 2->0->1
        ]
        paths = {0: [0, 1, 3], 1: [1, 3, 2], 2: [3, 2, 0], 3: [2, 0, 1]}
        routing = RoutingResult.from_paths(mesh2x2, commodities, paths, "ring")
        cycle = find_cycle(routing)
        assert cycle is not None
        assert len(cycle) == 4
        assert not is_deadlock_free(routing)

    def test_acyclic_returns_none(self, mesh3x3):
        routing = xy_routing(mesh3x3, [_commodity(0, 0, 8), _commodity(1, 8, 0)])
        assert find_cycle(routing) is None


class TestFaultReroutedPaths:
    """Deadlock analysis over fault-rerouted path sets (satellite of the
    fault-injection subsystem: the CDG audit is mandatory for detours)."""

    def _surviving_routing(self, topology, spec):
        from repro.faults.reroute import fault_reroute
        from repro.faults.spec import FaultSpec
        from repro.graphs.random_graphs import random_core_graph
        from repro.mapping import nmap_single_path

        app = random_core_graph(12, seed=7)
        fabric = topology.with_uniform_bandwidth(app.total_bandwidth())
        degraded = FaultSpec(**spec).apply(fabric)
        mapping = nmap_single_path(app, degraded).mapping
        commodities = build_commodities(app, mapping)
        return fault_reroute(degraded, commodities)

    def test_degraded_mesh_paths_acyclic(self, mesh4x4):
        routing = self._surviving_routing(
            mesh4x4, {"failed_links": ((1, 2), (9, 13))}
        )
        assert find_cycle(routing) is None
        assert is_deadlock_free(routing)

    def test_degraded_torus_paths_acyclic(self):
        from repro.graphs.topology import NoCTopology

        torus = NoCTopology.torus_grid(4, 4)
        routing = self._surviving_routing(torus, {"failed_routers": (5,)})
        assert find_cycle(routing) is None
        assert is_deadlock_free(routing)

    def test_constructed_cycle_rejected_as_fault(self, mesh2x2):
        """A hand-built ring must be found and typed as a FaultError."""
        from repro.errors import FaultError
        from repro.faults.reroute import verify_deadlock_free

        commodities = [
            _commodity(0, 0, 3), _commodity(1, 1, 2),
            _commodity(2, 3, 0), _commodity(3, 2, 1),
        ]
        paths = {0: [0, 1, 3], 1: [1, 3, 2], 2: [3, 2, 0], 3: [2, 0, 1]}
        routing = RoutingResult.from_paths(mesh2x2, commodities, paths, "ring")
        cycle = find_cycle(routing)
        assert cycle is not None
        assert set(cycle) == {(0, 1), (1, 3), (3, 2), (2, 0)}
        with pytest.raises(FaultError, match="channel-dependency cycle"):
            verify_deadlock_free(routing)


class TestSplitRoutingAudit:
    def test_split_flows_analyzable(self, mesh3x3):
        commodities = [_commodity(0, 0, 4, 900.0), _commodity(1, 2, 6, 700.0)]
        _lam, routing = solve_min_congestion(mesh3x3, commodities, quadrant_only=True)
        # quadrant-monotone flows only ever approach their destination, so
        # per-commodity dependencies cannot close a cycle on two commodities
        # heading in perpendicular directions
        assert is_deadlock_free(routing) in (True, False)  # completes
        assert count_dependencies(routing) >= 1

    def test_app_min_path_audit(self, mesh4x4):
        from repro.apps import mwa
        from repro.mapping import nmap_single_path

        app = mwa()
        mapping = nmap_single_path(app, mesh4x4.with_uniform_bandwidth(1e5)).mapping
        commodities = build_commodities(app, mapping)
        routing = min_path_routing(mesh4x4, commodities)
        # the audit must complete and report a concrete verdict
        verdict = is_deadlock_free(routing)
        assert isinstance(verdict, bool)


def _networkx_cycle(routing):
    """The oracle: networkx's own search over the CDG's DiGraph."""
    try:
        edges = nx.find_cycle(channel_dependency_graph(routing), orientation="original")
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in edges]


@st.composite
def walked_routings(draw):
    """A few commodities on a small (possibly damaged) mesh or torus, each on
    a random simple walk — cyclic CDGs are common — and sometimes handed
    over as fractional flows, so the routing-table branch is searched too."""
    width, height = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    fabric = NoCTopology(width, height, torus=draw(st.booleans()))
    if draw(st.booleans()):
        fabric = fabric.with_failed_links(
            draw(st.lists(st.sampled_from(fabric.link_keys()), max_size=2))
        )
    adjacency = fabric.adjacency()
    commodities, paths = [], {}
    for k in range(draw(st.integers(1, 7))):
        walk = [draw(st.sampled_from(fabric.healthy_nodes()))]
        for _ in range(draw(st.integers(1, 6))):
            options = [v for v in adjacency[walk[-1]] if fabric.has_link(walk[-1], v)]
            options = [v for v in options if v not in walk]
            if not options:
                break
            walk.append(draw(st.sampled_from(options)))
        if len(walk) > 1:
            commodities.append(Commodity(k, f"s{k}", f"d{k}", walk[0], walk[-1], 10.0))
            paths[k] = walk
    routing = RoutingResult.from_paths(fabric, commodities, paths, "walked")
    return dataclasses.replace(routing, paths=None) if draw(st.booleans()) else routing


_RING = RoutingResult.from_paths(
    NoCTopology.mesh(2, 2),
    [_commodity(0, 0, 3), _commodity(1, 1, 2), _commodity(2, 3, 0), _commodity(3, 2, 1)],
    {0: [0, 1, 3], 1: [1, 3, 2], 2: [3, 2, 0], 3: [2, 0, 1]},
    "ring",
)


class TestFindCycleIsNetworkx:
    """``find_cycle`` searches a plain adjacency, not networkx; it must name
    the cycle ``networkx.find_cycle`` names, so a ``FaultError`` reads the
    same character for character."""

    @given(walked_routings())
    @example(_RING)
    @settings(max_examples=300, deadline=None)
    def test_the_cycle_is_networkx_s_and_so_is_the_fault_text(self, routing):
        expected = _networkx_cycle(routing)
        assert find_cycle(routing) == expected
        assert is_deadlock_free(routing) is (expected is None)
        assert count_dependencies(routing) == channel_dependency_graph(routing).number_of_edges()

        def message(search):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(reroute, "find_cycle", search)
                try:
                    reroute.verify_deadlock_free(routing)
                except FaultError as error:
                    return str(error)
            return None

        assert message(find_cycle) == message(_networkx_cycle)

    def test_the_draws_hold_both_verdicts(self):
        """The property above sees cyclic and acyclic routings alike."""
        verdicts = set()

        @given(walked_routings())
        @settings(max_examples=60, deadline=None, database=None, derandomize=True)
        def collect(routing):
            verdicts.add(find_cycle(routing) is None)

        collect()
        assert verdicts == {True, False}
