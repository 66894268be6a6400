"""Unit tests for the multi-commodity-flow solvers (MCF1/MCF2/min-congestion)."""

from __future__ import annotations

import pytest

from repro.errors import GraphError, RoutingError
from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.split import (
    assemble_mcf,
    solve_mcf1,
    solve_mcf2,
    solve_min_congestion,
)


def _commodity(index, src, dst, value):
    return Commodity(index, f"s{index}", f"d{index}", src, dst, value)


def _check_conservation(routing, commodity, topology):
    """Every node's per-commodity in/out flows must balance (Equation 5)."""
    flow = routing.flows[commodity.index]
    for node in topology.nodes:
        outgoing = sum(v for (u, _w), v in flow.items() if u == node)
        incoming = sum(v for (_u, w), v in flow.items() if w == node)
        expected = 0.0
        if node == commodity.src_node:
            expected = commodity.value
        elif node == commodity.dst_node:
            expected = -commodity.value
        assert outgoing - incoming == pytest.approx(expected, abs=1e-6)


class TestMcfAssembly:
    def test_variable_count_all_paths(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 5.0), _commodity(1, 2, 6, 3.0)]
        model = assemble_mcf(mesh3x3, commodities, quadrant_only=False)
        assert len(model.var_link) == 2 * mesh3x3.num_links  # commodities x links
        assert model.var_commodity.tolist() == [0] * 24 + [1] * 24
        assert len(model.cap_links) == mesh3x3.num_links
        assert len(model.b_eq) == 2 * mesh3x3.num_nodes  # one row per node each

    def test_variable_count_quadrant(self, mesh3x3):
        # adjacent: a single link; 0 -> 4: the four links of the 2x2 quadrant
        commodities = [_commodity(0, 0, 1, 5.0), _commodity(1, 0, 4, 5.0)]
        model = assemble_mcf(mesh3x3, commodities, quadrant_only=True)
        keys = mesh3x3.link_keys()
        assert [keys[link] for link in model.var_link] == [
            (0, 1), (0, 1), (0, 3), (1, 4), (3, 4),
        ]  # fmt: skip
        assert [keys[link] for link in model.cap_links] == [(0, 1), (0, 3), (1, 4), (3, 4)]
        assert model.b_eq.tolist() == [5.0, -5.0, 5.0, 0.0, 0.0, -5.0]

    def test_conservation_rows_skip_what_a_dead_router_cut_off(self, mesh3x3):
        degraded = mesh3x3.with_failed_routers([4])
        model = assemble_mcf(degraded, [_commodity(0, 0, 8, 5.0)])
        assert len(model.b_eq) == 8  # node 4 touches no link: no row
        assert model.b_eq.tolist() == [5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -5.0]
        rows, columns = model.eq[1]
        src, dst, _bandwidth = degraded.link_arrays()
        row_of_node = [0, 1, 2, 3, None, 4, 5, 6, 7]
        assert rows.tolist() == [row_of_node[n] for n in src.tolist() + dst.tolist()]
        assert columns.tolist() == 2 * list(range(degraded.num_links))

    def test_quadrant_of_a_dead_router_has_no_variables(self, mesh3x3):
        degraded = mesh3x3.with_failed_routers([4])
        model = assemble_mcf(degraded, [_commodity(0, 0, 4, 5.0)], quadrant_only=True)
        assert model.var_link.size == 0 and model.b_eq.size == 0  # nothing reaches it
        with pytest.raises(GraphError):
            assemble_mcf(mesh3x3, [_commodity(0, 4, 4, 5.0)], quadrant_only=True)

    def test_empty_commodities_rejected(self, mesh2x2):
        with pytest.raises(RoutingError):
            assemble_mcf(mesh2x2, [])


class TestMcf1:
    def test_zero_slack_when_capacity_suffices(self, mesh3x3):
        slack, routing = solve_mcf1(mesh3x3, [_commodity(0, 0, 8, 100.0)])
        assert slack == pytest.approx(0.0, abs=1e-6)
        assert routing.is_feasible()

    def test_positive_slack_when_overloaded(self, mesh2x2):
        # 3000 MB/s out of node 0 over two 1000 MB/s links: >= 1000 slack
        commodities = [_commodity(0, 0, 3, 3000.0)]
        slack, routing = solve_mcf1(mesh2x2, commodities)
        assert slack >= 1000.0 - 1e-6

    def test_slack_measures_violation_exactly(self, mesh2x2):
        # single commodity 0->1 of 1500 on 1000-capacity links: splitting
        # 0->1 direct and 0->2->3->1 can carry 1000+500 => slack 0
        slack, _ = solve_mcf1(mesh2x2, [_commodity(0, 0, 1, 1500.0)])
        assert slack == pytest.approx(0.0, abs=1e-6)

    def test_conservation_holds(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 500.0), _commodity(1, 2, 6, 300.0)]
        _slack, routing = solve_mcf1(mesh3x3, commodities)
        for commodity in commodities:
            _check_conservation(routing, commodity, mesh3x3)


class TestMcf2:
    def test_cost_equals_manhattan_when_loose(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 10.0)]
        cost, routing = solve_mcf2(mesh3x3, commodities)
        assert cost == pytest.approx(40.0)  # 4 hops x 10
        assert routing.total_flow() == pytest.approx(40.0)

    def test_cost_exceeds_manhattan_when_tight(self):
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1000.0)
        # 1500 from 0 to 1: 1000 direct (1 hop) + 500 the long way (3 hops)
        cost, routing = solve_mcf2(mesh, [_commodity(0, 0, 1, 1500.0)])
        assert cost == pytest.approx(1000.0 + 3 * 500.0)
        assert routing.is_feasible()

    def test_none_when_infeasible(self, mesh2x2):
        result = solve_mcf2(mesh2x2, [_commodity(0, 0, 3, 3000.0)])
        assert result is None

    def test_quadrant_only_restricts_to_min_paths(self, mesh3x3):
        commodities = [_commodity(0, 0, 4, 800.0)]
        cost, routing = solve_mcf2(mesh3x3, commodities, quadrant_only=True)
        # all flow on 2-hop minimum paths regardless of split
        assert cost == pytest.approx(1600.0)
        for link in routing.flows[0]:
            assert link in {(0, 1), (1, 4), (0, 3), (3, 4)}

    def test_quadrant_infeasible_but_all_path_feasible(self):
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1000.0)
        commodities = [_commodity(0, 0, 1, 1500.0)]
        assert solve_mcf2(mesh, commodities, quadrant_only=True) is None
        assert solve_mcf2(mesh, commodities, quadrant_only=False) is not None


class TestMinCongestion:
    def test_single_flow_splits(self, mesh3x3):
        # 900 from 0 to 4 over 2 disjoint min paths -> lambda 450
        lam, routing = solve_min_congestion(
            mesh3x3, [_commodity(0, 0, 4, 900.0)], quadrant_only=True
        )
        assert lam == pytest.approx(450.0)

    def test_all_paths_beats_quadrant(self, mesh3x3):
        commodities = [_commodity(0, 0, 1, 900.0)]
        lam_quadrant, _ = solve_min_congestion(mesh3x3, commodities, quadrant_only=True)
        lam_all, _ = solve_min_congestion(mesh3x3, commodities, quadrant_only=False)
        assert lam_quadrant == pytest.approx(900.0)  # single min path
        assert lam_all < lam_quadrant  # can detour around

    def test_capacities_ignored(self):
        # capacities tiny, but min-congestion reports what is *needed*
        mesh = NoCTopology.mesh(3, 3, link_bandwidth=1.0)
        lam, _ = solve_min_congestion(mesh, [_commodity(0, 0, 4, 500.0)])
        assert lam == pytest.approx(250.0)

    def test_secondary_phase_keeps_lambda(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 600.0), _commodity(1, 6, 2, 600.0)]
        lam1, routing1 = solve_min_congestion(
            mesh3x3, commodities, minimize_flow_secondary=False
        )
        lam2, routing2 = solve_min_congestion(
            mesh3x3, commodities, minimize_flow_secondary=True
        )
        assert lam2 == pytest.approx(lam1)
        assert routing2.max_link_load() <= lam1 * (1 + 1e-6) + 1e-6
        assert routing2.total_flow() <= routing1.total_flow() + 1e-6

    def test_conservation_in_split_solution(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 600.0)]
        _lam, routing = solve_min_congestion(mesh3x3, commodities)
        _check_conservation(routing, commodities[0], mesh3x3)

    def test_lower_bound_out_degree(self, mesh3x3):
        # 0 has out-degree 2: lambda >= value / 2 however traffic splits
        lam, _ = solve_min_congestion(mesh3x3, [_commodity(0, 0, 8, 1000.0)])
        assert lam >= 500.0 - 1e-6
