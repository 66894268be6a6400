"""Integration tests asserting the paper's headline shapes.

These are the claims a reproduction must preserve, checked end to end:
NMAP/PBB beat PMAP/GMAP on cost, splitting roughly halves bandwidth needs,
NMAP's advantage over PBB grows with scale, the DSP design needs 600 MB/s
single-path, and split-routing latency rises more gently than single-path.
"""

from __future__ import annotations

import pytest

from repro.apps import VIDEO_APPS, get_app
from repro.apps.dsp import dsp_filter, dsp_mesh
from repro.graphs.commodities import build_commodities
from repro.graphs.random_graphs import random_core_graph
from repro.graphs.topology import NoCTopology
from repro.mapping import gmap, nmap_single_path, pbb, pmap
from repro.metrics import min_bandwidth_min_path, min_bandwidth_split
from repro.routing.min_path import min_path_routing


def _mesh_for(app):
    return NoCTopology.smallest_mesh_for(app.num_cores, link_bandwidth=app.total_bandwidth())


class TestFig3Shape:
    @pytest.mark.parametrize("app_name", VIDEO_APPS)
    def test_nmap_never_loses_to_pmap(self, app_name):
        app = get_app(app_name)
        mesh = _mesh_for(app)
        assert nmap_single_path(app, mesh).comm_cost <= pmap(app, mesh).comm_cost

    @pytest.mark.parametrize("app_name", VIDEO_APPS)
    def test_nmap_close_to_or_better_than_gmap(self, app_name):
        app = get_app(app_name)
        mesh = _mesh_for(app)
        nmap_cost = nmap_single_path(app, mesh).comm_cost
        gmap_cost = gmap(app, mesh).comm_cost
        assert nmap_cost <= gmap_cost * 1.05  # NMAP within 5% or better

    def test_pbb_comparable_to_nmap_on_small_apps(self):
        """The paper: 'for small number of cores, PBB gives good performance,
        comparable to NMAP'."""
        app = get_app("vopd")
        mesh = _mesh_for(app)
        nmap_cost = nmap_single_path(app, mesh).comm_cost
        pbb_cost = pbb(app, mesh, max_queue=1000).comm_cost
        assert 0.8 <= pbb_cost / nmap_cost <= 1.2


class TestFig4Shape:
    @pytest.mark.parametrize("app_name", VIDEO_APPS)
    def test_splitting_reduces_bandwidth(self, app_name):
        app = get_app(app_name)
        mesh = _mesh_for(app)
        mapping = nmap_single_path(app, mesh).mapping
        single_bw, _ = min_bandwidth_min_path(mapping)
        split_bw, _ = min_bandwidth_split(mapping, quadrant_only=False)
        assert split_bw <= single_bw + 1e-6

    def test_average_bandwidth_saving_near_2x(self):
        """Table 1: bwr averages ~2.13 in the paper."""
        ratios = []
        for app_name in VIDEO_APPS:
            app = get_app(app_name)
            mesh = _mesh_for(app)
            mapping = nmap_single_path(app, mesh).mapping
            single_bw, _ = min_bandwidth_min_path(mapping)
            split_bw, _ = min_bandwidth_split(mapping, quadrant_only=False)
            ratios.append(single_bw / split_bw)
        average = sum(ratios) / len(ratios)
        assert average >= 1.5  # at least ~2x-ish class savings


class TestTable2Shape:
    def test_nmap_advantage_grows_with_cores(self):
        ratios = {}
        for size in (15, 45):
            app = random_core_graph(size, seed=2004 + size)
            mesh = NoCTopology.smallest_mesh_for(size, link_bandwidth=app.total_bandwidth())
            pbb_cost = pbb(app, mesh, max_queue=200).comm_cost
            nmap_cost = nmap_single_path(app, mesh).comm_cost
            ratios[size] = pbb_cost / nmap_cost
        assert ratios[45] > ratios[15] * 0.99  # growth (allow tiny noise)
        assert ratios[45] > 1.1


class TestTable3Shape:
    def test_minp_bandwidth_is_600(self):
        app = dsp_filter()
        mesh = dsp_mesh(link_bandwidth=app.total_bandwidth())
        mapping = nmap_single_path(app, mesh).mapping
        commodities = build_commodities(app, mapping)
        routing = min_path_routing(mesh, commodities)
        assert routing.max_link_load() == pytest.approx(600.0)

    def test_split_bandwidth_reaches_400(self):
        """400 MB/s is optimal on the 2x3 mesh (cut-bound argument)."""
        from repro.mapping import nmap_with_splitting

        app = dsp_filter()
        result = nmap_with_splitting(
            app, dsp_mesh(link_bandwidth=400.0), quadrant_only=False
        )
        assert result.feasible


class TestFig5cShape:
    def test_split_flattens_latency_growth(self):
        """Single-path latency grows more than split when bandwidth drops."""
        from repro.routing.split import solve_min_congestion
        from repro.simnoc import SimConfig, simulate_mapping

        app = dsp_filter()
        mesh = dsp_mesh(link_bandwidth=500.0)
        from repro.mapping import nmap_with_splitting

        mapped = nmap_with_splitting(app, mesh, quadrant_only=True)
        commodities = build_commodities(app, mapped.mapping)
        single = min_path_routing(mesh, commodities)
        _lam, split = solve_min_congestion(mesh, commodities, quadrant_only=True)

        def mean_latency(routing, gbps):
            means = []
            for seed in (1, 2):
                config = SimConfig(
                    mean_burst_packets=2.0,
                    buffer_depth=16,
                    measure_cycles=12_000,
                    seed=seed,
                )
                report = simulate_mapping(
                    mesh,
                    commodities,
                    routing,
                    config,
                    link_rate_flits_per_cycle=config.gbps_link_rate(gbps),
                )
                means.append(report.stats.mean)
            return sum(means) / len(means)

        growth_single = mean_latency(single, 1.1) - mean_latency(single, 1.8)
        growth_split = mean_latency(split, 1.1) - mean_latency(split, 1.8)
        assert growth_single > growth_split
