"""Unit tests for NMAP with traffic splitting (mappingwithsplitting())."""

from __future__ import annotations

import pytest

from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.nmap import nmap_single_path
from repro.mapping.nmap_split import nmap_with_splitting
from repro.metrics.comm_cost import comm_cost
from repro.routing.split import solve_mcf2


class TestNmapSplit:
    def test_feasible_when_loose(self, square_graph):
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1e6)
        result = nmap_with_splitting(square_graph, mesh)
        assert result.feasible
        assert result.algorithm == "nmap-ta"
        assert result.mapping.is_complete

    def test_cost_equals_manhattan_when_loose(self, square_graph):
        # With loose capacities MCF2 routes everything on min paths, so the
        # split cost equals Equation 7 of the same mapping.
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1e6)
        result = nmap_with_splitting(square_graph, mesh)
        assert result.comm_cost == pytest.approx(comm_cost(result.mapping))

    def test_splitting_rescues_infeasible_single_path(self):
        # 1500 MB/s between two cores, 1000 MB/s links: single-path cannot
        # satisfy (any single link is over capacity), splitting can.
        graph = CoreGraph()
        graph.add_traffic("a", "b", 1500.0)
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1000.0)
        single = nmap_single_path(graph, mesh)
        split = nmap_with_splitting(graph, mesh, quadrant_only=False)
        assert not single.feasible
        assert split.feasible
        assert split.routing.is_feasible()

    def test_quadrant_variant_cannot_rescue_adjacent(self):
        # NMAPTM only uses minimum paths; for adjacent placement there is a
        # single min path, but at distance 2 there are two, so the mapper
        # must separate the pair to satisfy the constraint.
        graph = CoreGraph()
        graph.add_traffic("a", "b", 1500.0)
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1000.0)
        result = nmap_with_splitting(graph, mesh, quadrant_only=True)
        assert result.algorithm == "nmap-tm"
        if result.feasible:
            nodes = result.mapping
            assert mesh.distance(nodes.node_of("a"), nodes.node_of("b")) == 2

    def test_infeasible_reports_inf(self):
        graph = CoreGraph()
        graph.add_traffic("a", "b", 9000.0)
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1000.0)
        result = nmap_with_splitting(graph, mesh)
        assert not result.feasible
        assert result.comm_cost == float("inf")
        assert result.routing is not None  # MCF1 flows kept for diagnosis

    def test_split_cost_at_least_single_path_cost(self, square_graph):
        # MCF2's optimum is lower-bounded by the hop-weighted cost, and NMAP
        # single-path optimizes exactly that bound: split never does better.
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1e6)
        single = nmap_single_path(square_graph, mesh)
        split = nmap_with_splitting(square_graph, mesh)
        assert split.comm_cost >= single.comm_cost - 1e-6

    def test_stats_recorded(self, square_graph):
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1e6)
        result = nmap_with_splitting(square_graph, mesh)
        assert result.stats["mcf1_solved"] >= 1
        assert result.stats["mcf2_solved"] >= 1
        assert result.stats["swaps_tried"] == 6  # C(4,2) node pairs

    def test_no_improve_mode(self, square_graph):
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1e6)
        result = nmap_with_splitting(square_graph, mesh, improve=False)
        assert result.stats["swaps_tried"] == 0
        assert result.feasible

    def test_dsp_split_meets_400(self):
        from repro.apps.dsp import dsp_filter, dsp_mesh

        result = nmap_with_splitting(
            dsp_filter(), dsp_mesh(link_bandwidth=400.0), quadrant_only=False
        )
        assert result.feasible
        assert result.routing.max_link_load() <= 400.0 + 1e-6


def _fractional_star() -> CoreGraph:
    """Five fractional flows around core c1: Equation 7 sums them to
    76.99999999999999, HiGHS's MCF2 objective for the same placement to
    77.0."""
    graph = CoreGraph()
    for src, dst, bandwidth in (
        ("c1", "c2", 39.4),
        ("c1", "c0", 6.7),
        ("c1", "c3", 8.2),
        ("c0", "c1", 12.1),
        ("c3", "c1", 10.6),
    ):
        graph.add_traffic(src, dst, bandwidth)
    return graph


class TestClosedFormPricing:
    """On a pristine fabric whose every link carries the app's total traffic
    no capacity can bind: MCF1 is 0 and MCF2 is Equation 7, priced without
    an LP, and the final split routing is solved on first read."""

    @pytest.mark.parametrize("quadrant_only", [False, True])
    def test_fractional_bandwidths_report_equation_7(self, quadrant_only):
        # An LP objective off from Equation 7 in the last bits made the
        # Manhattan-bound scan solve four more MCF2s that "improved" only by
        # round-off, and reported 77.0 for a placement NMAP prices lower.
        graph = _fractional_star()
        mesh = NoCTopology.mesh(3, 2, link_bandwidth=1000.0)
        result = nmap_with_splitting(graph, mesh, quadrant_only=quadrant_only)
        single = nmap_single_path(graph, mesh)
        assert result.mapping == single.mapping
        assert result.comm_cost == comm_cost(result.mapping) == single.comm_cost
        assert result.stats == {
            "swaps_tried": 15,
            "swaps_accepted": 0,
            "mcf1_solved": 1,
            "mcf2_solved": 1,
        }

    @pytest.mark.parametrize("quadrant_only", [False, True])
    def test_the_routing_is_solved_on_first_read(self, monkeypatch, quadrant_only):
        from repro.mapping import base, nmap_split

        solved = []

        def counted(*args, **kwargs):
            solved.append(kwargs["quadrant_only"])
            return solve_mcf2(*args, **kwargs)

        monkeypatch.setattr(nmap_split, "solve_mcf1", None)  # never called
        monkeypatch.setattr(nmap_split, "solve_mcf2", None)
        monkeypatch.setattr(base, "solve_mcf2", counted)
        result = nmap_with_splitting(_fractional_star(), NoCTopology.mesh(3, 2, 1000.0),
                                     quadrant_only=quadrant_only)  # fmt: skip
        assert solved == []
        routing = result.routing
        assert solved == [quadrant_only] and result.routing is routing
        assert routing.algorithm == ("mcf-split-minpath" if quadrant_only else "mcf-split")
        assert routing.is_feasible()
        assert sum(load for load in routing.link_loads().values()) == pytest.approx(
            result.comm_cost
        )
