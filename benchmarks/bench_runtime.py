"""Runtime benches: the paper's "fast algorithm" claim.

§5 notes NMAP completes "in a few seconds" where the ILP takes minutes.
These benches time the core algorithm kernels so regressions in asymptotics
(e.g. breaking the O(deg) swap delta, an O(V^3) core order, or a quadrant
DAG that scans every link of the fabric per commodity) show up as timing
cliffs.
"""

from __future__ import annotations

from repro.apps import pip, vopd
from repro.graphs.commodities import build_commodities
from repro.graphs.random_graphs import random_core_graph
from repro.graphs.topology import NoCTopology
from repro.mapping import (
    annealing_mapping,
    initial_mapping,
    nmap_single_path,
    nmap_with_splitting,
    pbb,
    pmap,
)
from repro.routing.min_path import min_path_routing
from repro.routing.split import solve_min_congestion


def test_runtime_nmap_vopd(benchmark):
    app = vopd()
    mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
    result = benchmark(nmap_single_path, app, mesh)
    assert result.feasible


def test_runtime_nmap_65_cores(benchmark):
    app = random_core_graph(65, seed=2069)
    mesh = NoCTopology.smallest_mesh_for(65, link_bandwidth=app.total_bandwidth())
    result = benchmark.pedantic(
        nmap_single_path, args=(app, mesh), rounds=1, iterations=1
    )
    assert result.feasible


def _random_instance(cores, seed):
    # A fresh graph per round: its cached orders must not carry over.
    app = random_core_graph(cores, seed=seed)
    mesh = NoCTopology.smallest_mesh_for(cores, link_bandwidth=app.total_bandwidth())
    return (app, mesh), {}


def test_runtime_initial_mapping_100_cores(benchmark):
    """The max-adjacency order plus one placement scan per core."""
    mapping = benchmark.pedantic(
        initial_mapping, setup=lambda: _random_instance(100, 2100), rounds=5
    )
    assert mapping.is_complete


def test_runtime_pmap_100_cores(benchmark):
    """The same order, the frontier scan, and 100 cores' worth of quadrant DAGs."""
    result = benchmark.pedantic(
        pmap, setup=lambda: _random_instance(100, 2100), rounds=5
    )
    assert result.mapping.is_complete


def test_runtime_annealing_25_cores(benchmark):
    """~18k moves: the per-move delta is the whole run."""
    result = benchmark.pedantic(
        annealing_mapping, setup=lambda: _random_instance(25, 2025), rounds=3
    )
    assert result.feasible


def test_runtime_pbb_pip(benchmark):
    """~10k partials at a 2000-deep queue: the bound's tail, once per partial."""
    app = pip()
    mesh = NoCTopology.smallest_mesh_for(8, link_bandwidth=app.total_bandwidth())
    result = benchmark.pedantic(pbb, args=(app, mesh), rounds=3)
    assert result.feasible


def test_runtime_min_path_routing(benchmark):
    app = vopd()
    mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
    mapping = nmap_single_path(app, mesh).mapping
    commodities = build_commodities(app, mapping)
    routing = benchmark(min_path_routing, mesh, commodities)
    assert routing.max_link_load() > 0


def test_runtime_mcf_min_congestion(benchmark):
    app = vopd()
    mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
    mapping = nmap_single_path(app, mesh).mapping
    commodities = build_commodities(app, mapping)
    lam, _ = benchmark.pedantic(
        solve_min_congestion, args=(mesh, commodities), rounds=1, iterations=1
    )
    assert lam > 0


def test_runtime_nmap_split_dsp(benchmark):
    from repro.apps.dsp import dsp_filter, dsp_mesh

    app = dsp_filter()
    mesh = dsp_mesh(link_bandwidth=400.0)
    result = benchmark.pedantic(
        nmap_with_splitting, args=(app, mesh), rounds=1, iterations=1
    )
    assert result.feasible
