"""Every production kernel == the seed's oracle for it (``tests/reference``).

The contract (PERFORMANCE.md): ``src/`` holds one path per kernel — numpy
gathers for Equation 7 and the swap deltas, a memoized quadrant DAG for
min-path routing, a cycle loop and router step that skip idle components —
and each produces *bit-identical* results to the seed's scalar
implementation, which lives on as an oracle under ``tests/reference`` (or,
for the two scalar kernels production still falls back to, in
``repro.metrics.comm_cost``).  Whole algorithms are re-run with the oracles
substituted at their import sites and must retrace the same search.
Bandwidth labels in this repository are integer-valued, so all Equation-7
arithmetic is exact in float64 and plain ``==`` comparisons are the right
assertion — any tolerance would hide a real divergence.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.apps import vopd
from repro.graphs.commodities import build_commodities
from repro.graphs.random_graphs import random_core_graph
from repro.graphs.topology import NoCTopology
from repro.mapping import annealing_mapping, nmap_single_path
from repro.mapping.base import Mapping
from repro.metrics.comm_cost import comm_cost, comm_cost_reference, swap_cost_deltas
from repro.routing.min_path import min_path_routing
from repro.simnoc.config import SimConfig
from repro.simnoc.network import build_network
from repro.simnoc.simulator import Simulator
from tests.reference import per_pair_swap_deltas, quadrant_outgoing, seed_cycle_loop


def _workloads():
    """(core graph, topology) pairs covering mesh, torus and empty nodes."""
    yield vopd(), NoCTopology.smallest_mesh_for(16)
    yield random_core_graph(30, seed=7), NoCTopology.smallest_mesh_for(30)
    yield random_core_graph(12, seed=3), NoCTopology.torus_grid(4, 4)


def _random_complete_mapping(app, mesh, rng):
    nodes = list(mesh.nodes)
    rng.shuffle(nodes)
    return Mapping(app, mesh, dict(zip(app.cores, nodes)))


class TestCostKernels:
    def test_comm_cost_matches_reference(self):
        rng = random.Random(2024)
        for app, mesh in _workloads():
            for _ in range(10):
                mapping = _random_complete_mapping(app, mesh, rng)
                assert comm_cost(mapping) == comm_cost_reference(mapping)

    def test_comm_cost_tracks_mutations(self):
        """The in-place array maintenance must survive swap/assign churn."""
        rng = random.Random(5)
        app, mesh = vopd(), NoCTopology.smallest_mesh_for(16)
        mapping = _random_complete_mapping(app, mesh, rng)
        comm_cost(mapping)  # force the array cache into existence
        for _ in range(50):
            a, b = rng.sample(list(mesh.nodes), 2)
            mapping.swap_nodes(a, b)
            assert comm_cost(mapping) == comm_cost_reference(mapping)
        core = app.cores[0]
        node = mapping.node_of(core)
        mapping.unassign(core)
        mapping.assign(core, node)
        assert comm_cost(mapping) == comm_cost_reference(mapping)

    def test_batch_swap_deltas_match_scalar_all_pairs(self):
        rng = random.Random(77)
        for app, mesh in _workloads():
            mapping = _random_complete_mapping(app, mesh, rng)
            for a in mesh.nodes:
                candidates = [b for b in mesh.nodes if b != a]
                batch = swap_cost_deltas(mapping, a, candidates)
                scalar = per_pair_swap_deltas(mapping, a, candidates)
                assert np.array_equal(batch, scalar)

    def test_batch_swap_deltas_empty_and_identity(self):
        app, mesh = vopd(), NoCTopology.smallest_mesh_for(16)
        mapping = _random_complete_mapping(app, mesh, random.Random(1))
        assert swap_cost_deltas(mapping, 0, []).size == 0
        assert swap_cost_deltas(mapping, 3, [3])[0] == 0.0


@contextmanager
def seed_kernels(monkeypatch):
    """Run the enclosed block on the seed's kernels; yields their call counts.

    The oracles replace the vectorized kernels where the algorithms import
    them — there is no switch in ``src/`` to flip.  The counts let a test
    tell a substitution that took from an import site that moved.
    """
    calls: Counter = Counter()

    def counted(name, oracle):
        def wrapper(*args):
            calls[name] += 1
            return oracle(*args)

        return wrapper

    with monkeypatch.context() as patch:
        for module in ("repro.mapping.nmap", "repro.mapping.annealing"):
            patch.setattr(
                f"{module}.comm_cost", counted("comm_cost", comm_cost_reference)
            )
        patch.setattr(
            "repro.mapping.nmap.swap_cost_deltas",
            counted("swap_cost_deltas", per_pair_swap_deltas),
        )
        patch.setattr(
            NoCTopology,
            "monotone_outgoing",
            counted("monotone_outgoing", quadrant_outgoing),
        )
        yield calls


class TestAlgorithmTrajectories:
    """The kernels must not just approximate — the *search* must be identical."""

    @pytest.mark.parametrize("size,seed", [(16, 0), (35, 2039)])
    def test_nmap_retraces_the_seed_search(self, monkeypatch, size, seed):
        app = vopd() if size == 16 else random_core_graph(size, seed=seed)
        mesh = NoCTopology.smallest_mesh_for(
            app.num_cores, link_bandwidth=app.total_bandwidth()
        )
        with seed_kernels(monkeypatch) as calls:
            reference = nmap_single_path(app, mesh)
        assert all(
            calls[kernel]
            for kernel in ("comm_cost", "swap_cost_deltas", "monotone_outgoing")
        )
        produced = nmap_single_path(app, mesh)
        assert produced.mapping.placement == reference.mapping.placement
        assert produced.comm_cost == reference.comm_cost
        assert produced.stats == reference.stats

    def test_annealing_retraces_the_seed_search(self, monkeypatch):
        app = random_core_graph(20, seed=9)
        mesh = NoCTopology.smallest_mesh_for(20, link_bandwidth=app.total_bandwidth())
        with seed_kernels(monkeypatch) as calls:
            reference = annealing_mapping(app, mesh, seed=4)
        assert calls["comm_cost"] and calls["monotone_outgoing"]
        produced = annealing_mapping(app, mesh, seed=4)
        assert produced.mapping.placement == reference.mapping.placement
        assert produced.comm_cost == reference.comm_cost
        assert produced.stats == reference.stats

    def test_min_path_routing_picks_the_seed_paths(self, monkeypatch):
        app = vopd()
        mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
        mapping = nmap_single_path(app, mesh).mapping
        commodities = build_commodities(app, mapping)
        with seed_kernels(monkeypatch) as calls:
            reference = min_path_routing(mesh, commodities)
        assert calls["monotone_outgoing"] == len(commodities)
        assert min_path_routing(mesh, commodities).paths == reference.paths


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("bandwidth_scale,burst", [(0.05, 1.0), (0.5, 3.0)])
    def test_cycle_engine_matches_seed_loop(self, bandwidth_scale, burst):
        """Skipping idle routers, NIs, ports and cycles changes no statistic."""
        app = vopd()
        mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
        mapping = nmap_single_path(app, mesh).mapping
        commodities = build_commodities(app, mapping)
        routing = min_path_routing(mesh, commodities)
        config = SimConfig(
            warmup_cycles=500,
            measure_cycles=4000,
            drain_cycles=500,
            seed=13,
            mean_burst_packets=burst,
        )

        def simulator():
            return Simulator(
                build_network(
                    mesh, commodities, routing, config, bandwidth_scale=bandwidth_scale
                )
            )

        assert simulator().run() == seed_cycle_loop(simulator())
