"""Every production kernel == the seed's oracle for it (``tests/reference``).

The contract (PERFORMANCE.md): ``src/`` holds one path per kernel — numpy
gathers for Equation 7 and the placement scan, a gain table for NMAP's swap
deltas, array-built core orders, a list-backed mirror for the annealer's
move, a quadrant DAG built from the quadrant's own nodes, a level-order
sweep of it for min-path routing, a
PBB bound priced per partial, a cycle loop and router step that skip idle
components, latency statistics grouped and reduced over columns — and each
produces *bit-identical* results to the seed's scalar
implementation, which lives on as an oracle under ``tests/reference`` (or,
for the two scalar cost kernels, in ``repro.metrics.comm_cost``).  Whole algorithms are re-run with the oracles
substituted at their import sites and must retrace the same search.
Bandwidth labels in this repository are integer-valued, so all Equation-7
arithmetic is exact in float64 and plain ``==`` comparisons are the right
assertion — any tolerance would hide a real divergence.
"""

from __future__ import annotations

import importlib
import random
import re
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy import sparse

from repro.apps import all_apps, pip, vopd
from repro.errors import ReproError, RoutingError
from repro.graphs.commodities import Commodity
from repro.graphs.commodities import build_commodities
from repro.graphs.core_graph import CoreGraph
from repro.graphs.quadrant import quadrant_links
from repro.graphs.random_graphs import random_core_graph
from repro.graphs.topology import NoCTopology
from repro.lp import Coo, _columns as lp_columns, solve as lp_solve
from repro.mapping import (
    annealing_mapping,
    gmap,
    hmap,
    initial_mapping,
    nmap_single_path,
    nmap_with_splitting,
    pbb,
    pmap,
)
from repro.mapping import nmap_split
from repro.mapping.annealing import pair_sampler
from repro.mapping.base import Mapping
from repro.mapping.hmap import _cluster_cores
from repro.mapping.initializer import best_node, center_pull
from repro.mapping.nmap import evaluate_single_path
from repro.metrics.comm_cost import (
    SwapGains,
    SwapMirror,
    comm_cost,
    comm_cost_reference,
    placement_costs,
    swap_cost_delta,
)
from repro.routing import ilp, min_path, split
from repro.routing.base import RoutingResult
from repro.routing.min_path import least_loaded_quadrant_path, min_path_routing
from repro.api import MapRequest, SimOptions, SimRequest
from repro.api import engine as api_engine
from repro.errors import SimulationError
from repro.simnoc import stats
from repro.simnoc.config import SimConfig
from repro.simnoc.engines import flat_kernel
from repro.simnoc.engines.flat_kernel import ARG_FIELDS, KernelProgram
from repro.simnoc.engines.sweep import _FlatState
from repro.simnoc.config import LOCAL
from repro.simnoc.network import build_network
from repro.simnoc.packet import Packet
from repro.simnoc.simulator import Simulator
from repro.simnoc.trace import TraceRecorder
from tests.reference import (
    PerMoveSwapMirror,
    dijkstra_quadrant_path,
    every_link_quadrant_links,
    every_port_step,
    next_core_order,
    object_walk,
    per_child_bound_pbb,
    per_partial_pbb,
    per_node_placement_costs,
    packet_walk_flow_stats,
    packet_walk_latency_stats,
    per_pair_swap_deltas,
    recomputed_frontier_pmap,
    scanned_best_node,
    seed_build_fabric,
    seed_cycle_loop,
    selection_order,
    sorted_traffic_order,
    summed_affinity_clusters,
)
from tests.reference import lp as object_lp
from tests.reference.ni import NetworkInterface
from tests.reference.object_engine import OBJECT_ENGINE, objects
from tests.reference.router import Router, make_flits, refill_bucket_to
from tests.reference.simnoc import (
    latency_stats,
    packet_columns,
    per_commodity_jitter,
    per_commodity_latency_std,
    per_commodity_means,
)
from tests.reference.vc_router import VCRouter

#: The object-model engine is filed under ``OBJECT_ENGINE`` while this
#: module's tests run.
pytestmark = pytest.mark.usefixtures("object_engine")


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
            table = SwapGains(mapping)
            for a in mesh.nodes:
                candidates = [b for b in mesh.nodes if b != a]
                batch = table.deltas(a, candidates)
                scalar = per_pair_swap_deltas(mapping, a, candidates)
                assert np.array_equal(batch, scalar)

    def test_batch_swap_deltas_empty_and_identity(self):
        app, mesh = vopd(), NoCTopology.smallest_mesh_for(16)
        table = SwapGains(_random_complete_mapping(app, mesh, random.Random(1)))
        assert table.deltas(0, []).size == 0
        assert table.deltas(3, [3])[0] == 0.0

    def test_fractional_bandwidths_stay_within_rounding(self):
        """Off the integer labels the table is only ``allclose`` to the scan,
        shifted or rebuilt — and the cost NMAP reports is still Equation 7 of
        the mapping it returns, not a running sum of deltas."""
        rng = random.Random(11)
        app = CoreGraph(name="fractional")
        for core in range(14):
            app.add_core(f"c{core}")
        for _ in range(40):
            src, dst = rng.sample(range(14), 2)
            app.add_traffic(f"c{src}", f"c{dst}", rng.uniform(0.1, 97.3))
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=app.total_bandwidth())
        mapping = _random_complete_mapping(app, mesh, rng)
        table = SwapGains(mapping)
        for _ in range(25):
            table.swap(*rng.sample(list(mesh.nodes), 2))
        assert np.allclose(table.gains, SwapGains(mapping).gains, rtol=1e-12, atol=1e-9)
        for a in mesh.nodes:
            assert np.allclose(
                table.deltas(a, list(mesh.nodes)),
                per_pair_swap_deltas(mapping, a, mesh.nodes),
                rtol=1e-12,
                atol=1e-9,
            )
        result = nmap_single_path(app, mesh)
        assert result.stats["swaps_accepted"] > 0
        assert result.comm_cost == comm_cost(result.mapping)


@st.composite
def fabrics(draw, damaged=True):
    """Mesh, torus or 1xN line — pristine, or (``damaged``) with failed links
    or routers."""
    kind = draw(st.sampled_from(["mesh", "torus", "line"]))
    if kind == "line":
        width, height = draw(st.integers(3, 9)), 1
    else:
        width, height = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    fabric = NoCTopology(width, height, torus=kind == "torus")
    if not damaged:
        return fabric
    damage = draw(st.sampled_from(["none", "links", "routers"]))
    if damage == "links":
        links = draw(
            st.lists(st.sampled_from(fabric.link_keys()), min_size=1, max_size=3)
        )
        fabric = fabric.with_failed_links(links)
    elif damage == "routers":
        routers = draw(
            st.lists(
                st.integers(0, fabric.num_nodes - 1),
                min_size=1,
                max_size=min(2, fabric.num_nodes - 2),
                unique=True,
            )
        )
        fabric = fabric.with_failed_routers(routers)
    return fabric


@st.composite
def core_graphs(draw, max_cores=12):
    """Integer-weight graphs, often disconnected; ``unit`` makes every weight
    1, so every key ties and only the tie-break order decides."""
    count = draw(st.integers(2, max_cores))
    unit = draw(st.booleans())
    pick = st.integers(0, count - 1)
    edges = draw(
        st.lists(st.tuples(pick, pick, st.integers(1, 9)), max_size=3 * count)
    )
    graph = CoreGraph(name="generated")
    for core in range(count):
        graph.add_core(f"c{core}")
    for src, dst, weight in edges:
        if src != dst:
            graph.add_traffic(f"c{src}", f"c{dst}", 1 if unit else weight)
    return graph


@st.composite
def placements(draw, complete, fabric=None):
    """A mapping onto the healthy nodes of a fabric (drawn by :func:`fabrics`
    unless given) with room to spare more often than not (|V| < |U|);
    ``complete=False`` leaves some cores out."""
    if fabric is None:
        fabric = draw(fabrics())
    healthy = fabric.healthy_nodes()
    graph = draw(core_graphs(max_cores=min(12, len(healthy))))
    nodes = draw(st.permutations(healthy))
    cores = graph.cores
    if not complete:
        cores = draw(st.permutations(cores))[: draw(st.integers(0, len(cores) - 1))]
    return Mapping(graph, fabric, dict(zip(cores, nodes)))


class TestIndexSpaceKernels:
    """The orders, the placement scan, the move delta and the quadrant DAG
    against their oracles, over generated graphs and fabrics."""

    @given(core_graphs())
    @settings(max_examples=150, deadline=None)
    def test_orders_match_the_seed_sorts(self, graph):
        assert graph.traffic_array().tolist() == [
            graph.core_traffic(core) for core in graph.cores
        ]
        assert graph.traffic_order() == sorted_traffic_order(graph)
        assert graph.max_adjacency_order() == selection_order(graph)
        assert graph.max_adjacency_order() == next_core_order(graph)

    def test_orders_follow_graph_mutations(self):
        graph = CoreGraph.from_flows([("a", "b", 5), ("b", "c", 1)])
        assert graph.max_adjacency_order() == ("b", "a", "c")
        graph.add_traffic("c", "d", 9)
        assert graph.traffic_order() == sorted_traffic_order(graph)
        assert graph.max_adjacency_order() == selection_order(graph)
        assert graph.max_adjacency_order()[0] == "c"

    @given(placements(complete=False), st.data())
    @settings(max_examples=150, deadline=None)
    def test_placement_scan_matches_the_per_node_loop(self, mapping, data):
        """The costs, and the node each tie-break rule takes from them."""
        unmapped = [c for c in mapping.core_graph.cores if not mapping.is_mapped(c)]
        core = data.draw(st.sampled_from(unmapped))
        candidates = mapping.free_nodes()
        produced = placement_costs(mapping, core, candidates)
        assert produced.dtype == np.float64
        assert np.array_equal(
            produced, per_node_placement_costs(mapping, core, candidates)
        )
        for pull in (None, center_pull(mapping.topology)):
            assert best_node(mapping, core, candidates, pull) == scanned_best_node(
                mapping, core, candidates, pull
            )

    @given(core_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_hmap_clusters_match_the_summed_affinities(self, graph, data):
        """Running affinity rows pick the cluster the per-member sums picked."""
        room = st.integers(0, graph.num_cores)
        capacities = data.draw(st.lists(room, min_size=1, max_size=5))
        capacities[0] += max(0, graph.num_cores - sum(capacities))
        assert _cluster_cores(graph, capacities) == summed_affinity_clusters(
            graph, capacities
        )

    @given(placements(complete=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_mirror_move_matches_the_scalar_delta(self, mapping, data):
        """Every pair, then again after each of a few committed swaps."""
        mirror = SwapMirror(mapping)
        healthy = mapping.topology.healthy_nodes()
        for _ in range(3):
            for a in healthy:
                for b in healthy:
                    assert mirror.delta(a, b) == swap_cost_delta(mapping, a, b)
            mirror.swap(*data.draw(st.permutations(healthy))[:2])
            positions, node_core = mapping.position_arrays()
            assert mirror.position == positions.tolist()
            assert mirror.node_core == node_core.tolist()

    @given(st.integers(2, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_pair_draw_is_random_sample(self, count, seed):
        """The annealer's pair draw returns what ``random.sample(nodes, 2)``
        does and leaves the stream where ``sample`` leaves it — on both of
        ``sample``'s branches (pool up to 21 members, redraw above)."""
        nodes = list(range(100, 100 + count))
        drawn, sampled = random.Random(seed), random.Random(seed)
        pair = pair_sampler(drawn, nodes)
        for _ in range(200):
            assert pair() == tuple(sampled.sample(nodes, 2))
        assert drawn.getstate() == sampled.getstate()

    @given(placements(complete=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_gain_table_matches_the_per_pair_scan(self, mapping, data):
        """Every row, then again after each of a few committed swaps — and
        the shifted table is the one a fresh build sums, bit for bit."""
        table = SwapGains(mapping)
        nodes = list(mapping.topology.nodes)
        healthy = mapping.topology.healthy_nodes()
        some = st.lists(st.sampled_from(nodes), max_size=len(nodes))
        for _ in range(3):
            for a in nodes:
                produced = table.deltas(a, nodes)
                assert produced.dtype == np.float64
                assert np.array_equal(produced, per_pair_swap_deltas(mapping, a, nodes))
            a, candidates = data.draw(st.sampled_from(nodes)), data.draw(some)
            assert np.array_equal(
                table.deltas(a, candidates), per_pair_swap_deltas(mapping, a, candidates)
            )
            table.swap(*data.draw(st.permutations(healthy))[:2])
            fresh = SwapGains(mapping)
            assert np.array_equal(table.gains, fresh.gains)
            assert np.array_equal(table.weights, fresh.weights)
            assert not table.gains[-1].any() and not table.weights[-1].any()

    @given(fabrics(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_level_sweep_picks_the_dijkstra_path(self, fabric, data):
        """Loads from a four-value domain, so most prefixes tie and the
        ``(weight, path)`` order decides: same path, or neither routes."""
        links = fabric.link_keys()
        load = st.sampled_from([0.0, 1.0, 0.25, 1.5])
        loads = data.draw(st.dictionaries(st.sampled_from(links), load)) if links else {}
        base_weight = data.draw(st.sampled_from([0.0, 0.25, 1.0]))
        for src in fabric.nodes:
            for dst in fabric.nodes:
                if src != dst:
                    assert _outcome(
                        least_loaded_quadrant_path, fabric, src, dst, loads, base_weight
                    ) == _outcome(
                        dijkstra_quadrant_path, fabric, src, dst, loads, base_weight
                    )

    @given(fabrics())
    @settings(max_examples=100, deadline=None)
    def test_quadrant_links_match_the_every_link_filter(self, fabric):
        for src in fabric.nodes:
            for dst in fabric.nodes:
                if src != dst:
                    for monotone in (False, True):
                        assert quadrant_links(
                            fabric, src, dst, monotone
                        ) == every_link_quadrant_links(fabric, src, dst, monotone)


@st.composite
def commodity_sets(draw):
    """A fabric and a few commodities between distinct healthy nodes of it —
    unreachable pairs and link-less fabrics included, so the error paths
    (an infeasible MCF, a program without variables) are drawn too."""
    fabric = draw(fabrics())
    node = st.sampled_from(fabric.healthy_nodes())
    pairs = draw(
        st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), min_size=1, max_size=6)
    )
    return fabric, [
        Commodity(k, f"s{k}", f"d{k}", src, dst, float(draw(st.integers(1, 1500))))
        for k, (src, dst) in enumerate(pairs)
    ]


def _outcome(solver, *args):
    try:
        return solver(*args)
    except ReproError as error:
        return type(error)


INF = np.inf

#: The programs of ``tests/lp``: dense rows, absent blocks, free and boxed
#: columns, infeasible and unbounded LPs, and the MILPs.
_LP_SHAPES = [
    ([1.0, 1.0], None, None, None, None, [(1.0, INF), (2.0, INF)]),
    ([1.0, 2.0], [[-1.0, -1.0], [1.0, 0.0]], [-4.0, 3.0], None, None, [(0.0, INF)] * 2),
    ([1.0, 0.0], None, None, [[1.0, 1.0]], [10.0], [(0.0, INF)] * 2),
    ([1.0], [[-1.0]], [-2.0], None, None, [(0.0, 1.0)]),
    ([1.0], None, None, None, None, [(-INF, INF)]),
    (np.zeros(0), None, None, None, None, np.zeros((0, 2))),
    ([-3.0, -4.0, -2.0], [[2.0, 3.0, 1.0]], [4.0], None, None, [(0.0, 1.0)] * 3, [1, 1, 1]),
    ([1.0], [[-2.0]], [-5.0], None, None, [(0.0, INF)], [0]),
    ([1.0], [[-2.0]], [-5.0], None, None, [(0.0, INF)], [1]),
    ([0.0, 1.0], None, None, [[1.0, 1.0]], [3.5], [(0.0, 10.0), (0.0, INF)], [1, 0]),
    ([1.0], [[-1.0]], [-2.0], None, None, [(0.0, 1.0)], [1]),
    ([1.0, 2.0, 3.0, 4.0], None, None, [[1.0] * 4], [1.0], [(0.0, 1.0)] * 4, [1] * 4),
]


def _columns_are_scipys(program):
    """The CSC arrays ``solve`` builds from a caller's :class:`Coo` blocks ==
    ``csc_array(vstack(...))`` of the CSR matrices the callers built from
    the same triples while ``solve`` stacked them with scipy."""
    c, a_ub, b_ub, a_eq, b_eq = program[:5]
    rows = (len(b_ub), len(b_eq))
    stacked = sparse.vstack([
        sparse.csr_matrix((block.data, (block.row, block.col)), shape=(m, len(c)))
        for block, m in zip((a_ub, a_eq), rows)
    ])  # fmt: skip
    reference = sparse.csc_array(stacked, dtype=np.float64)
    produced = lp_columns(a_ub, a_eq, *rows, len(c))
    for mine, theirs in zip(produced, (reference.indptr, reference.indices, reference.data)):
        assert mine.tolist() == theirs.tolist()


def _answers_as_scipy(program):
    """``repro.lp.solve`` == the ``linprog`` / ``milp`` call it replaced:
    same status, the same objective and the same ``x``, bit for bit."""
    produced = _outcome(lp_solve, *program)
    reference = _outcome(object_lp.linprog_solve, *program)
    if isinstance(reference, type):
        assert produced is reference
        return
    assert produced.status is reference.status
    assert produced.objective == reference.objective or (
        np.isnan(produced.objective) and np.isnan(reference.objective)
    )
    assert np.array_equal(produced.x, reference.x)


class TestMcfAssembly:
    """``routing.split`` assembles the arrays the object-built models lowered
    to — same shape, same row and column order, same values — so HiGHS walks
    to the same vertex and every flow downstream is the same float."""

    @staticmethod
    def _checked_solve(expected, calls):
        """Stands in for ``split.solve``: the arrays it is handed must be the
        next expected object-built model's, then it solves them for real."""

        def solve(c, a_ub, b_ub, a_eq, b_eq, bounds):
            calls["solve"] += 1
            want_c, want_a_ub, want_b_ub, want_a_eq, want_b_eq, want_bounds, _ = (
                object_lp.matrices(expected.pop(0)(calls["lambda"]).program)
            )
            for produced, reference in ((a_ub, want_a_ub), (a_eq, want_a_eq)):
                assert isinstance(produced, Coo)
                matrix = sparse.csr_matrix(
                    (produced.data, (produced.row, produced.col)), shape=reference.shape
                )
                assert matrix.dtype == np.float64
                assert (matrix != reference).nnz == 0
            for produced, reference in (
                (c, want_c), (b_ub, want_b_ub), (b_eq, want_b_eq), (bounds, want_bounds),
            ):  # fmt: skip
                assert produced.dtype == np.float64
                assert np.array_equal(produced, reference)
            solution = lp_solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
            calls["lambda"] = solution.objective
            return solution

        return solve

    @given(commodity_sets(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_the_three_programs_are_the_object_built_matrices(self, drawn, quadrant_only):
        fabric, commodities = drawn
        args = (fabric, commodities, quadrant_only)

        def phase_two(lambda_star):
            return object_lp.mcf2_model(*args, capacity=lambda_star * (1.0 + 1e-9) + 1e-9)

        for solver, oracle, models in (
            (split.solve_mcf1, object_lp.object_built_mcf1,
             [lambda _: object_lp.mcf1_model(*args)]),
            (split.solve_mcf2, object_lp.object_built_mcf2,
             [lambda _: object_lp.mcf2_model(*args)]),
            (split.solve_min_congestion, object_lp.object_built_min_congestion,
             [lambda _: object_lp.min_congestion_model(*args), phase_two]),
        ):  # fmt: skip
            calls: Counter = Counter()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(split, "solve", self._checked_solve(list(models), calls))
                produced = _outcome(solver, *args)
            reference = _outcome(oracle, *args)
            # Only an MCF that cannot be solved may stop before its last program.
            assert calls["solve"] == len(models) or (
                calls["solve"] and not isinstance(produced, tuple)
            )
            assert produced == reference

    @staticmethod
    def _programs(module, solver, *args):
        """Every program ``solver`` hands ``module.solve``, as it handed it."""
        programs = []

        def captured(*program, integrality=None):
            programs.append((*program, integrality))
            return lp_solve(*program, integrality)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "solve", captured)
            _outcome(solver, *args)
        return programs

    @given(commodity_sets(), st.booleans())
    @example(
        (NoCTopology.mesh(2, 2, link_bandwidth=1000.0), [Commodity(0, "s", "d", 0, 1, 1500.0)]),
        True,
    )  # MCF2 infeasible: the one quadrant link carries 1 000 of 1 500
    @settings(max_examples=80, deadline=None)
    def test_solve_answers_as_linprog_and_milp(self, drawn, quadrant_only):
        """MCF1, MCF2 (infeasible draws too), both min-congestion phases and
        the single-path ILP: HiGHS driven directly == scipy's public call.
        The core is private to scipy; a release that changes it fails here."""
        fabric, commodities = drawn
        args = (fabric, commodities, quadrant_only)
        programs = [
            program
            for solver in (split.solve_mcf1, split.solve_mcf2, split.solve_min_congestion)
            for program in self._programs(split, solver, *args)
        ]
        if not quadrant_only:
            programs += self._programs(ilp, ilp.ilp_single_path_routing, fabric, commodities)
        assert programs
        for program in programs:
            _columns_are_scipys(program)
            _answers_as_scipy(program)

    @pytest.mark.parametrize("program", _LP_SHAPES)
    def test_lp_shapes_answer_as_linprog_and_milp(self, program):
        _answers_as_scipy(program)

    def test_link_views_follow_bandwidth_changes(self):
        """The capacity right-hand side is read through the version counter."""
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1000.0)
        commodities = [Commodity(0, "s", "d", 0, 1, 1500.0)]
        assert split.solve_mcf1(mesh, commodities)[0] == 0.0
        for link in mesh.link_keys():
            mesh.set_link_bandwidth(*link, 500.0)
        assert split.solve_mcf1(mesh, commodities) == object_lp.object_built_mcf1(
            mesh, commodities
        )
        assert split.solve_mcf1(mesh, commodities)[0] == 500.0

    @pytest.mark.parametrize("quadrant_only", [False, True])
    def test_nmap_split_keeps_the_object_built_search(self, monkeypatch, quadrant_only):
        """nmap-ta / nmap-tm on the seven built-in apps and two degraded
        fabrics: stats, cost and the final flows, float for float.  The
        reference solves every program: pip's links at 1000 MB/s carry its
        768 MB/s total, where the search prices in closed form."""
        cases = [
            (app, NoCTopology.smallest_mesh_for(app.num_cores, 1000.0))
            for app in all_apps().values()
        ]
        cases.append((pip(), NoCTopology.mesh(3, 4, 768.0).with_failed_routers([5])))
        cases.append((vopd(), NoCTopology.torus_grid(4, 5, 600.0).with_failed_links([(5, 6)])))
        assert len(cases) == 9
        for app, fabric in cases:
            calls: Counter = Counter()

            def counted(name, oracle):
                def solver(*args, **kwargs):
                    calls[name] += 1
                    return oracle(*args, **kwargs)

                return solver

            with monkeypatch.context() as patch:
                patch.setattr(nmap_split, "solve_mcf1", counted("mcf1", object_lp.object_built_mcf1))
                patch.setattr(nmap_split, "solve_mcf2", counted("mcf2", object_lp.object_built_mcf2))
                patch.setattr(nmap_split, "no_capacity_can_bind", lambda *_: False)
                reference = nmap_with_splitting(app, fabric, quadrant_only=quadrant_only)
            assert calls["mcf1"] == reference.stats["mcf1_solved"] > 0
            assert calls["mcf2"] == reference.stats["mcf2_solved"]
            produced = nmap_with_splitting(app, fabric, quadrant_only=quadrant_only)
            _same_search(produced, reference)
            assert produced.routing.flows == reference.routing.flows


@contextmanager
def seed_kernels(monkeypatch):
    """Run the enclosed block on the seed's kernels; yields their call counts.

    The oracles replace the index-space kernels where the algorithms import
    them — there is no switch in ``src/`` to flip.  The counts let a test
    tell a substitution that took from an import site that moved.
    """
    calls: Counter = Counter()

    def counted(name, oracle):
        def wrapper(*args):
            calls[name] += 1
            return oracle(*args)

        return wrapper

    def scanned_deltas(table, node_a, nodes):
        return per_pair_swap_deltas(table.mapping, node_a, nodes)

    def mapper_module(name):
        # Not "repro.mapping.<name>" as a string: the package re-exports the
        # pmap / hmap functions under their modules' names.
        return importlib.import_module(f"repro.mapping.{name}")

    with monkeypatch.context() as patch:
        for kernel, oracle, importers in (
            ("comm_cost", comm_cost_reference, ("nmap", "nmap_split", "annealing")),
            ("best_node", scanned_best_node, ("initializer", "gmap", "pmap", "hmap")),
            ("SwapMirror", PerMoveSwapMirror, ("annealing",)),
        ):
            for name in importers:
                patch.setattr(mapper_module(name), kernel, counted(kernel, oracle))
        for view, oracle in (
            ("traffic_order", sorted_traffic_order),
            ("max_adjacency_order", selection_order),
        ):
            patch.setattr(CoreGraph, view, counted(view, oracle))
        patch.setattr(SwapGains, "deltas", counted("swap_deltas", scanned_deltas))
        patch.setattr(
            min_path,
            "least_loaded_quadrant_path",
            counted("quadrant_path", dijkstra_quadrant_path),
        )
        yield calls


def _same_search(produced, reference):
    assert produced.mapping.placement == reference.mapping.placement
    assert produced.comm_cost == reference.comm_cost
    assert produced.stats == reference.stats
    assert produced.routing.paths == reference.routing.paths


def _routed(result):
    """``result`` with its routing read.  A mapper whose fabric no routing
    can overload defers it to the first read, so a reference reads it while
    the oracles are in place."""
    assert result.routing is not None
    return result


def _fabric_cases():
    """(core graph, fabric): the `_workloads` trio plus a mesh with a dead
    interior router and more nodes than cores."""
    for app, mesh in _workloads():
        yield app, mesh.with_uniform_bandwidth(app.total_bandwidth())
    yield pip(), NoCTopology.mesh(3, 4, link_bandwidth=768.0).with_failed_routers([4])


class TestAlgorithmTrajectories:
    """The kernels must not just approximate — the *search* must be identical."""

    def test_initial_mapping_retraces_the_seed_placement(self, monkeypatch):
        for app, mesh in _fabric_cases():
            with seed_kernels(monkeypatch) as calls:
                reference = initial_mapping(app, mesh)
            assert calls["max_adjacency_order"] == 1
            assert calls["best_node"] == app.num_cores
            assert initial_mapping(app, mesh).placement == reference.placement

    @pytest.mark.parametrize(
        "mapper,order",
        [(gmap, "traffic_order"), (pmap, "max_adjacency_order"), (hmap, "traffic_order")],
    )
    def test_constructive_mappers_retrace_the_seed_placement(
        self, monkeypatch, mapper, order
    ):
        for app, mesh in _fabric_cases():
            with seed_kernels(monkeypatch) as calls:
                reference = _routed(mapper(app, mesh))
            assert calls[order] and calls["quadrant_path"]
            assert calls["best_node"] == app.num_cores
            _same_search(mapper(app, mesh), reference)

    def test_pmap_grows_the_frontier_the_seed_recomputed(self):
        """Seeding by "first free node" and updating the frontier per placed
        node is the seed's node-0 seed and per-core rebuild."""
        for app, mesh in _workloads():
            produced = pmap(app, mesh.with_uniform_bandwidth(app.total_bandwidth()))
            assert produced.mapping.placement == recomputed_frontier_pmap(app, mesh)

    @pytest.mark.parametrize("tight_bounds", [True, False])
    @pytest.mark.parametrize("max_queue", [2000, 40, 3])
    def test_pbb_retraces_the_per_child_bound_search(self, tight_bounds, max_queue):
        """One tail per partial ranks, prunes and overflows as one per child did."""
        overflows = set()
        for app, mesh in (
            (random_core_graph(5, seed=1), NoCTopology.mesh(3, 2, link_bandwidth=1e6)),
            (pip(), NoCTopology.mesh(3, 3, link_bandwidth=768.0)),
            (random_core_graph(9, seed=5), NoCTopology.torus_grid(3, 4, 1e6)),
            (random_core_graph(11, seed=8), NoCTopology.mesh(4, 3, link_bandwidth=1e6)),
        ):
            placement, expansions, overflowed = per_child_bound_pbb(
                app, mesh, max_queue, tight_bounds
            )
            produced = pbb(app, mesh, max_queue=max_queue, tight_bounds=tight_bounds)
            assert produced.mapping.placement == placement
            assert produced.stats["expansions"] == expansions
            assert produced.stats["queue_overflowed"] == overflowed
            overflows.add(overflowed)
        # The 5-core search fits a 2000-deep queue (exact); the rest overflow.
        assert overflows == ({False, True} if max_queue == 2000 else {True})

    @given(fabrics(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pbb_level_arrays_retrace_the_per_partial_search(self, fabric, data):
        """A tree level as arrays keeps, prunes and picks what the loop over
        partials did, on damaged fabrics too (failed routers are never a
        branch; a failed link leaves ``UNREACHABLE`` hops in every sum)."""
        graph = data.draw(core_graphs(max_cores=min(8, fabric.num_healthy_nodes)))
        max_queue = data.draw(st.sampled_from([1, 3, 40, 2000]))
        tight_bounds = data.draw(st.booleans())

        def outcome(search):
            try:
                return search()
            except ReproError as error:  # a disconnected pair fails pricing
                return type(error), str(error)

        def produced():
            result = pbb(graph, fabric, max_queue=max_queue, tight_bounds=tight_bounds)
            return (
                result.mapping.placement,
                result.comm_cost,
                result.stats["expansions"],
                result.stats["queue_overflowed"],
            )

        def loop():
            placement, expansions, overflowed = per_partial_pbb(
                graph, fabric, max_queue, tight_bounds
            )
            cost = evaluate_single_path(Mapping(graph, fabric, placement))[0]
            return placement, cost, expansions, overflowed

        assert outcome(produced) == outcome(loop)

    @pytest.mark.parametrize(
        "edges,width,height,max_queue,tight_bounds",
        [
            ([(0, 3), (4, 1), (3, 4), (4, 2), (2, 3)], 2, 3, 3, False),
            ([(0, 4), (4, 0), (2, 3), (4, 3), (1, 4), (3, 1), (4, 0)], 4, 2, 40, True),
        ],
    )
    def test_pbb_keeps_each_level_in_assignment_order(
        self, edges, width, height, max_queue, tight_bounds
    ):
        """Unit-weight children tie on (bound, exact) across the cut, under
        parents a pruned level ranked out of assignment order: only a level
        kept in assignment order breaks those ties as the tuples did."""
        graph = CoreGraph(name="ties")
        for core in range(5):
            graph.add_core(f"c{core}")
        for src, dst in edges:
            graph.add_traffic(f"c{src}", f"c{dst}", 1)
        fabric = NoCTopology(width, height)
        placement, expansions, overflowed = per_partial_pbb(
            graph, fabric, max_queue, tight_bounds
        )
        produced = pbb(graph, fabric, max_queue=max_queue, tight_bounds=tight_bounds)
        assert produced.mapping.placement == placement
        assert (produced.stats["expansions"], produced.stats["queue_overflowed"]) == (
            expansions,
            overflowed,
        )

    @pytest.mark.parametrize(
        "size,seed,objective",
        [(16, 0, "comm-cost"), (35, 2039, "comm-cost"), (16, 0, "resilience")],
    )
    def test_nmap_retraces_the_seed_search(self, monkeypatch, size, seed, objective):
        """``resilience`` searches the ensemble-summed metric view: the table
        must be built from that view's distances, as the scan reads them."""
        app = vopd() if size == 16 else random_core_graph(size, seed=seed)
        mesh = NoCTopology.smallest_mesh_for(
            app.num_cores, link_bandwidth=app.total_bandwidth()
        )
        with seed_kernels(monkeypatch) as calls:
            reference = _routed(nmap_single_path(app, mesh, objective=objective))
        assert all(
            calls[kernel]
            for kernel in (
                "max_adjacency_order",
                "best_node",
                "comm_cost",
                "swap_deltas",
                "quadrant_path",
            )
        )
        _same_search(nmap_single_path(app, mesh, objective=objective), reference)

    def test_nmap_split_retraces_the_seed_search(self, monkeypatch):
        """The cost phase skips the LPs the per-candidate bound skipped."""
        app = pip()
        mesh = NoCTopology.mesh(3, 3, link_bandwidth=app.total_bandwidth())
        with seed_kernels(monkeypatch) as calls:
            reference = nmap_with_splitting(app, mesh, quadrant_only=True)
        assert calls["swap_deltas"] == mesh.num_nodes
        assert 0 < reference.stats["mcf2_solved"] < reference.stats["swaps_tried"]
        _same_search(nmap_with_splitting(app, mesh, quadrant_only=True), reference)

    def test_annealing_retraces_the_seed_search(self, monkeypatch):
        app = random_core_graph(20, seed=9)
        mesh = NoCTopology.smallest_mesh_for(20, link_bandwidth=app.total_bandwidth())
        with seed_kernels(monkeypatch) as calls:
            reference = _routed(annealing_mapping(app, mesh, seed=4))
        assert calls["SwapMirror"] == 1
        assert calls["comm_cost"] and calls["quadrant_path"]
        stats = reference.stats
        assert 0 < stats["moves_accepted"] < stats["moves_attempted"]
        _same_search(annealing_mapping(app, mesh, seed=4), reference)

    def test_min_path_routing_picks_the_seed_paths(self, monkeypatch):
        app = vopd()
        mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
        mapping = nmap_single_path(app, mesh).mapping
        commodities = build_commodities(app, mapping)
        with seed_kernels(monkeypatch) as calls:
            reference = min_path_routing(mesh, commodities)
        assert calls["quadrant_path"] == len(commodities)
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
                ),
                engine=OBJECT_ENGINE,
            )

        assert simulator().run() == seed_cycle_loop(simulator())


INF = float("inf")


def _production_step(router, cycle, deliver):
    """``Router.step`` in the seed loop's ``step(router, cycle, deliver)`` form."""
    return router.step(cycle, deliver)


def _router_run(network, engine):
    """Report (or error text), flit trace and final port state of one run.

    ``engine`` is ``"seed"`` (the seed's loop over the seed's router step),
    ``"step"`` (the seed's loop over the production ``Router.step``) or a
    registered engine.  Every output port is first refilled to the run's
    end: skipped refills replay bit-exactly, so a lazily refilled bucket
    must then hold the tokens of one refilled every cycle.
    """
    recorder = TraceRecorder(max_events=1_000_000)
    seeded = engine in ("seed", "step")
    sim = Simulator(network, trace=recorder, engine=OBJECT_ENGINE if seeded else engine)
    try:
        if engine == "seed":
            outcome = seed_cycle_loop(sim)
        elif engine == "step":
            outcome = seed_cycle_loop(sim, _production_step)
        else:
            outcome = sim.run()
    except SimulationError as error:
        outcome = str(error)
    state = []
    routers = objects(network).routers
    for node in sorted(routers):
        router = routers[node]
        for key in router.output_order:
            port = router.outputs[key]
            refill_bucket_to(port, network.config.total_cycles)
            state.append((
                node, key, port.tokens, port.credits, port.owner,
                port.owner_packet_id, port.rr_pointer, port.flits_carried,
                port.last_refill,
            ))  # fmt: skip
        for key in router.input_order:
            queue = router.inputs[key].queue
            state.append((node, key, [(c, f.packet.packet_id, f.sequence) for c, f in queue]))
    return outcome, recorder.events, state


class TestRouterStep:
    """The production ``Router`` (port lists, cached next hops, inlined
    visibility and credit tests) against the seed's step in
    ``tests/reference``, which re-reads and re-resolves everything."""

    @given(
        commodity_sets(),
        st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.5]),  # link rate, flits/cycle
        st.sampled_from([0, 1, 7]),  # router_delay
        st.sampled_from([1, 2, 4]),  # buffer_depth
        st.sampled_from([4, 16, 64]),  # packet_bytes: 1-, 4- and 16-flit worms
        st.integers(0, 99),
    )
    @settings(max_examples=100, deadline=None)
    def test_engines_match_the_seed_step(self, drawn, rate, delay, depth, packet_bytes, seed):
        """Reports, flit traces, deadlock and routing messages and the final
        state of every port equal the seed loop's.  ``SimConfig`` floors
        ``router_delay`` at 1 and ``buffer_depth`` at 2, and the cycle
        engine's wake schedule relies on the floors; the router has none, so below
        them the production step is held to the seed's under one loop."""
        fabric, commodities = drawn
        try:
            routing = min_path_routing(fabric, commodities)
        except RoutingError:
            reject()
        config = SimConfig(
            buffer_depth=max(2, depth),
            router_delay=max(1, delay),
            packet_bytes=packet_bytes,
            warmup_cycles=20,
            measure_cycles=200,
            drain_cycles=100,
            seed=seed,
        )
        engines = ("step", OBJECT_ENGINE)
        if (delay, depth) != (config.router_delay, config.buffer_depth):
            object.__setattr__(config, "router_delay", delay)
            object.__setattr__(config, "buffer_depth", depth)
            engines = ("step",)

        def network():
            return build_network(
                fabric, commodities, routing, config, link_rate_flits_per_cycle=rate
            )

        reference = _router_run(network(), "seed")
        for engine in engines:
            assert _router_run(network(), engine) == reference, engine

    @pytest.mark.parametrize(
        "path,message",
        [
            ([0, 2], "packet 7 routed through node 1 not on its path [0, 2]"),
            ([1, 9], "node 1 has no output toward 9 (packet 7)"),
        ],
    )
    def test_routing_errors_keep_their_message_and_cycle(self, path, message):
        """A head whose route the router cannot follow raises the seed's
        ``SimulationError`` text at the cycle its head clears the pipeline,
        after the same deliveries (packet 6 is a good worm, already moving)."""

        def run(step):
            outputs = {LOCAL: (1.0, INF), 0: (1.0, 4.0), 2: (1.0, 4.0)}
            router = Router(1, [LOCAL, 0, 2], outputs, buffer_depth=4, router_delay=3)
            good = Packet(6, 0, 1, 2, [1, 2], 3, 0)
            bad = Packet(7, 1, 0, path[-1], path, 2, 0)
            for flit in make_flits(good):
                router.inputs[LOCAL].push(flit, 0)
            router.inputs[0].push(make_flits(bad)[0], 2)
            moves = []
            for cycle in range(10):
                try:
                    step(router, cycle, lambda *move: moves.append(move[1:]))
                except SimulationError as error:
                    return cycle, str(error), moves
            return None

        reference = run(every_port_step)
        assert reference[:2] == (5, message)
        assert [(to, flit.sequence, cycle) for to, flit, cycle in reference[2]] == [
            (2, 0, 3), (2, 1, 3), (2, 2, 4),
        ]
        assert run(_production_step) == reference

    def test_network_routing_error_matches_on_every_engine(self):
        """Through the engines: a route asking for a missing link raises the
        seed loop's message after the seed loop's flit movements."""
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=1600.0)
        commodities = [
            Commodity(0, "a", "b", 0, 1, 1500.0),
            Commodity(1, "a", "d", 0, 3, 1500.0),
        ]
        paths = {0: [0, 1], 1: [0, 3]}
        routing = RoutingResult(mesh, commodities, flows={}, paths=paths)
        config = SimConfig(warmup_cycles=0, measure_cycles=400, drain_cycles=0, seed=3)
        outcomes = {
            engine: _router_run(build_network(mesh, commodities, routing, config), engine)
            for engine in ("seed", "step", OBJECT_ENGINE)
        }
        reference = outcomes.pop("seed")
        assert re.fullmatch(r"node 0 has no output toward 3 \(packet \d+\)", reference[0])
        assert reference[1], "the good flow moved flits before the raise"
        for engine, outcome in outcomes.items():
            assert outcome == reference, engine


@st.composite
def packet_sets(draw):
    """Delivered, undelivered and unmeasured packets over a few flows.

    Small domains on purpose: flows of one, two and many packets (enough
    for a pairwise numpy sum to differ from Python's ``sum`` in the last
    bit), tied latencies (0 and 1 included, the histogram's shared bin) and
    tied delivery cycles all turn up within a handful of draws.
    """
    latency = st.one_of(st.integers(0, 3), st.integers(0, 5000))
    flows = draw(st.integers(1, 6))
    packets = []
    for packet_id in range(draw(st.integers(0, 80))):
        created = draw(st.integers(0, 6))
        wait = draw(st.integers(0, 2))
        landing = latency.map(lambda value: created + wait + value)
        delivered = draw(st.one_of(st.none(), landing))
        packets.append(
            Packet(
                packet_id,
                draw(st.integers(0, flows - 1)),
                0,
                1,
                [0, 1],
                4,
                created,
                injected_cycle=created + wait,
                delivered_cycle=delivered,
                measured=draw(st.booleans()),
            )
        )
    return packets


def _flow(commodity, created, delivered):
    return Packet(0, commodity, 0, 1, [0, 1], 4, created, created, delivered)


class TestStatisticsColumns:
    """``repro.simnoc.stats`` over columns == the seed's walks over packets."""

    @settings(max_examples=200, deadline=None)
    @given(packets=packet_sets())
    @example(packets=[])
    @example(packets=[_flow(3, 5, 5)])  # one packet, latency 0
    @example(packets=[_flow(3, 5, 6), _flow(3, 5, 6)])  # two, tied, latency 1
    @example(packets=[_flow(2, 0, 9), _flow(1, 0, 4), _flow(2, 1, 9), _flow(2, 0, 2)])
    def test_column_stats_equal_the_packet_walks(self, packets):
        flows = stats.per_flow_stats(*packet_columns(packets))
        walked = packet_walk_flow_stats(packets)
        # count, mean, p50, p95, std, jitter and histogram of every flow ...
        assert flows == walked
        # ... in the order the flows first appear.
        assert list(flows) == list(walked)
        for view, figure in (
            (per_commodity_means, "mean"),
            (per_commodity_jitter, "jitter"),
            (per_commodity_latency_std, "std"),
        ):
            assert view(packets) == {i: getattr(f, figure) for i, f in walked.items()}

        # The walk raises on a measured packet still in flight; the gather
        # drops it, as the report builder (which only sees deliveries) does.
        landed = [p for p in packets if p.delivered_cycle is not None]
        summaries = (latency_stats, packet_walk_latency_stats)
        if any(p.measured for p in landed):
            assert summaries[0](packets) == summaries[1](landed)
        else:
            for summarize in summaries:
                with pytest.raises(SimulationError, match="^no measured packets deliv"):
                    summarize(landed)


def _sim_request(engine, **options):
    return SimRequest(
        map_request=MapRequest(app="vopd", price_bandwidth=False),
        measure_cycles=1_200,
        warmup_cycles=200,
        drain_cycles=400,
        sim_seed=11,
        options=SimOptions(engine=engine, **options),
    )


class TestFabricWiring:
    """The flattened engines read the fabric record, never the router
    objects: its wiring must be what the seed built as objects and
    ``_FlatState`` read back off them (``tests/reference``'s
    ``seed_build_fabric`` and ``object_walk``), array for array."""

    @staticmethod
    def _same(produced, walked) -> bool:
        if isinstance(walked, np.ndarray):
            return produced.dtype == walked.dtype and np.array_equal(produced, walked)
        return produced == walked

    @given(
        fabrics(),
        st.sampled_from(["auto", "wormhole", "wormhole-vc"]),
        st.sampled_from([1, 2, 3]),  # num_vcs
        st.sampled_from([2, 4]),  # buffer_depth
        st.sampled_from([None, 2, 5]),  # vc_buffer_depth
        st.sampled_from([None, 0.5, 1.0, 2.5]),  # link-rate override
    )
    @settings(max_examples=80, deadline=None)
    def test_flat_state_and_kernel_arrays_equal_the_object_walk(
        self, topology, model, num_vcs, depth, vc_depth, rate
    ):
        config = SimConfig(
            router_model=model,
            num_vcs=num_vcs,
            buffer_depth=depth,
            vc_buffer_depth=vc_depth,
            warmup_cycles=0,
            measure_cycles=50,
            drain_cycles=0,
        )
        vc_mode = config.effective_router_model == "wormhole-vc"
        no_traffic = RoutingResult(topology, [], flows={}, paths={})

        def simulator():
            network = build_network(
                topology, [], no_traffic, config, link_rate_flits_per_cycle=rate
            )
            return Simulator(network, engine="vector")

        try:
            routers, _interfaces, link_rates = seed_build_fabric(topology, config, rate)
        except SimulationError as error:
            with pytest.raises(SimulationError) as caught:
                simulator()
            assert str(caught.value) == str(error)
            return
        walked = object_walk(routers, config, vc_mode)
        sim = simulator()
        assert list(sim.network.link_rates.items()) == list(link_rates.items())
        state = _FlatState(sim, vc_mode)
        for name, value in vars(state).items():
            assert self._same(value, getattr(walked, name)), name

        program = KernelProgram(sim, vc_mode)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                flat_kernel, "_FlatState", lambda sim, vc_mode: object_walk(routers, config, vc_mode)
            )
            reference = KernelProgram(simulator(), vc_mode)
        for name in ARG_FIELDS:
            assert self._same(getattr(program, name), getattr(reference, name)), name


class TestPacketObjects:
    """The flattened engines build no model object; the object engines do."""

    CASES = {
        "synthetic": dict(traffic="uniform", injection_rate=0.2),
        "synthetic-vc": dict(traffic="uniform", injection_rate=0.2, num_vcs=2),
        "trace": dict(),
    }
    COUNTED = (Packet, Router, VCRouter, NetworkInterface)

    @classmethod
    def _run(cls, monkeypatch, engine, options):
        """The run's sim and report, and how many of each counted class it
        built, network build included."""
        built = Counter()
        runs = []

        class Recording(Simulator):
            def run(self):
                runs.append((self, super().run()))
                return runs[-1][1]

        def counting(klass):
            init = klass.__init__

            def counting_init(self, *args, **kwargs):
                built[klass.__name__] += 1
                init(self, *args, **kwargs)

            return counting_init

        with monkeypatch.context() as patch:
            for klass in cls.COUNTED:
                patch.setattr(klass, "__init__", counting(klass))
            patch.setattr(api_engine, "Simulator", Recording)
            api_engine.run_sim(_sim_request(engine, **options))
        ((sim, report),) = runs
        return sim, report, built

    @pytest.mark.parametrize("case", CASES)
    def test_constructions_per_engine(self, monkeypatch, case):
        options = self.CASES[case]
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        monkeypatch.delenv("REPRO_JIT", raising=False)
        cycle_sim, reference, built = self._run(monkeypatch, OBJECT_ENGINE, options)
        assert built["Packet"] == reference.packets_created > 100
        router = "VCRouter" if options.get("num_vcs", 1) > 1 else "Router"
        assert built[router] == built["NetworkInterface"] == 16

        # The substitution took: whole-run statistics == the walk over the
        # cycle engine's packet objects.
        interfaces = objects(cycle_sim.network).interfaces.values()
        delivered = [p for ni in interfaces for p in ni.delivered_packets]
        assert reference.packets_delivered == len(delivered)
        assert reference.per_flow == packet_walk_flow_stats(delivered)
        assert list(reference.per_flow) == list(packet_walk_flow_stats(delivered))
        assert reference.stats == packet_walk_latency_stats(delivered)

        for env in ({}, {"REPRO_NO_JIT": "1"}):
            with monkeypatch.context() as patch:
                for name, value in env.items():
                    patch.setenv(name, value)
                sim, report, built = self._run(monkeypatch, "vector", options)
            assert not built, env
            assert sim.packet_log is not None
            assert report == reference
            assert list(report.per_flow) == list(reference.per_flow)
