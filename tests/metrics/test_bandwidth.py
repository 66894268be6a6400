"""Unit tests for the minimum-bandwidth metrics (Figure 4's quantities)."""

from __future__ import annotations

import pytest

from repro.graphs.core_graph import CoreGraph
from repro.mapping.base import Mapping
from repro.metrics.bandwidth import (
    link_utilizations,
    min_bandwidth_min_path,
    min_bandwidth_split,
    min_bandwidth_xy,
)


@pytest.fixture
def hot_pair_mapping(mesh3x3):
    graph = CoreGraph()
    graph.add_traffic("a", "b", 600.0)
    # distance-2 placement with two disjoint min paths
    return Mapping(graph, mesh3x3, {"a": 0, "b": 4})


class TestMinBandwidth:
    def test_xy_single_route(self, hot_pair_mapping):
        bw, routing = min_bandwidth_xy(hot_pair_mapping)
        assert bw == 600.0
        assert routing.paths[0] == [0, 1, 4]

    def test_min_path_equals_xy_single_flow(self, hot_pair_mapping):
        bw, _ = min_bandwidth_min_path(hot_pair_mapping)
        assert bw == 600.0  # one flow cannot be split by a single-path router

    def test_split_halves(self, hot_pair_mapping):
        bw, routing = min_bandwidth_split(hot_pair_mapping, quadrant_only=True)
        assert bw == pytest.approx(300.0)
        assert routing.max_link_load() == pytest.approx(300.0)

    def test_split_all_paths_at_most_quadrant(self, hot_pair_mapping):
        bw_tm, _ = min_bandwidth_split(hot_pair_mapping, quadrant_only=True)
        bw_ta, _ = min_bandwidth_split(hot_pair_mapping, quadrant_only=False)
        assert bw_ta <= bw_tm + 1e-9

    def test_ordering_chain(self, mesh4x4):
        """The Figure 4 ordering: split <= min-path <= XY for one mapping."""
        from repro.apps import vopd
        from repro.mapping import nmap_single_path

        app = vopd()
        result = nmap_single_path(app, mesh4x4.with_uniform_bandwidth(10000.0))
        xy, _ = min_bandwidth_xy(result.mapping)
        mp, _ = min_bandwidth_min_path(result.mapping)
        tm, _ = min_bandwidth_split(result.mapping, quadrant_only=True)
        ta, _ = min_bandwidth_split(result.mapping, quadrant_only=False)
        assert ta <= tm + 1e-6
        assert tm <= mp + 1e-6
        assert mp <= xy + 1e-6


class TestUtilization:
    def test_values(self, hot_pair_mapping):
        _bw, routing = min_bandwidth_xy(hot_pair_mapping)
        utils = link_utilizations(routing)
        assert utils[(0, 1)] == pytest.approx(0.6)  # 600 over 1000 capacity
        assert utils[(1, 4)] == pytest.approx(0.6)


@pytest.mark.parametrize("quadrant_only", [True, False])
def test_split_pricing_reads_the_two_phase_lambda(quadrant_only):
    """Pricing solves the min-congestion LP's first phase only; its λ* is
    the same float the two-phase solve returns, on every built-in app."""
    from repro.apps import all_apps
    from repro.graphs.commodities import build_commodities
    from repro.graphs.topology import NoCTopology
    from repro.mapping import nmap_single_path
    from repro.routing.split import solve_min_congestion

    for app in all_apps().values():
        mesh = NoCTopology.smallest_mesh_for(
            app.num_cores, link_bandwidth=app.total_bandwidth()
        )
        mapping = nmap_single_path(app, mesh).mapping
        two_phase, _ = solve_min_congestion(
            mesh, build_commodities(app, mapping), quadrant_only=quadrant_only
        )
        assert min_bandwidth_split(mapping, quadrant_only=quadrant_only)[0] == two_phase
