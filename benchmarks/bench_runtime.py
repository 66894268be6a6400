"""Runtime benches: the paper's "fast algorithm" claim.

§5 notes NMAP completes "in a few seconds" where the ILP takes minutes.
These benches time the core algorithm kernels so regressions in asymptotics
(e.g. breaking the O(deg) swap delta, an O(V^3) core order, a swap scan
that re-derives each row's deltas from the adjacency instead of gathering
them from the gain table, a quadrant DAG built per commodity before it is
searched, an MCF program built term by term in Python objects, or a router
step that re-resolves every head's route each cycle) show up as timing
cliffs.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.api import SimResponse, run
from repro.apps import pip, vopd
from repro.graphs.commodities import build_commodities
from repro.graphs.io import core_graph_from_dict
from repro.graphs.random_graphs import random_core_graph
from repro.graphs.topology import NoCTopology
from repro.lp import solve
from repro.mapping import (
    annealing_mapping,
    initial_mapping,
    nmap_single_path,
    nmap_with_splitting,
    pbb,
    pmap,
)
from repro.routing import split
from repro.routing.min_path import min_path_routing
from repro.routing.split import solve_min_congestion
from repro.service.wire import canonical_response_bytes, parse_request, parse_response
from repro.simnoc import SimConfig, Simulator, build_network

#: Seconds one golden-seed ``map_suite`` round may spend assembling its MCF
#: programs and reading their flows back.  The array assembly reads ~0.02 s
#: on the reference host, the object-built one it replaced 0.24 s.
MCF_ASSEMBLY_BUDGET_S = 0.1

#: Seconds for NMAP on the 100-core graph of the golden-seed ``map_suite``
#: round (24 750 swaps tried over five passes).  Gathering each row from the
#: gain table reads 18-19 ms on the reference host, the ~30 numpy calls a
#: row it replaced 38-45 ms, a per-pair scan 10x that.  Its links carry the
#: graph's total traffic, so the final mapping's routing is deferred to a
#: reader: min of 15 reads 17-19 ms on a 2-CPU host where routing it at the
#: end read 20-22 ms (pytest-benchmark's min of 5: 21-22 against 21-28),
#: too close to tighten the budget.
NMAP_100_CORES_BUDGET_S = 0.03

#: Seconds for PMAP on a random 100-core graph whose links carry its total
#: traffic: the order, the frontier scan and one placement scan per core.
#: With the final routing deferred to a reader it reads 2.2-2.8 ms (min of
#: 15, 2-CPU host; pytest-benchmark's min of 5: 2.5), and 6.7-9.8 ms when it
#: routed the 100 cores' quadrant DAGs at the end.
PMAP_100_CORES_BUDGET_S = 0.005

#: Seconds for one 2 700-cycle VOPD trace run on the ``cycle`` engine (the
#: network built fresh each round, outside the timing).  Port lists and
#: next hops cached per packet read 64-88 ms on the reference host, the
#: step that re-read every head and re-resolved every hop 146-175 ms.
CYCLE_VOPD_TRACE_BUDGET_S = 0.12

#: MCF programs one golden-seed ``map_suite`` round hands HiGHS: the NMAPTM /
#: NMAPTA searches' and each priced ``nmap`` request's min-congestion first
#: phase.  Pricing reads only lambda*, phase 1's objective, so it skips the
#: flow-minimizing second phase (seven more programs, 37, when it did not).
GOLDEN_ROUND_PROGRAMS = 30

#: Seconds to solve the 30 MCF programs of one golden-seed ``map_suite``
#: round through ``repro.lp.solve``, arrays prebuilt.  Unlike the budgets
#: above this one is set on a host ~2.3-2.6x slower than the reference
#: host (the e2e bench's ``host.slowdown``): there, driving scipy's bundled
#: HiGHS core directly read 229-250 ms over the 37 programs a round had
#: with pricing's second phase, and the ``linprog`` / ``milp`` call it
#: replaced 322-400 ms (HiGHS's own ``run`` is ~115 ms of either).  The
#: budget is 0.28 s scaled to 30 programs; the reference host reads the 30
#: in 87-104 ms.
LP_GOLDEN_ROUND_BUDGET_S = 0.23

#: Seconds for PBB on ``pip`` (8 cores, 3x3 mesh, a 2 000-deep queue, ~7.6 k
#: partials).  A tree level branched, bounded and pruned as arrays reads
#: 3.1-3.2 ms on the reference host, the loop over partials it replaced
#: 65-81 ms.
PBB_PIP_BUDGET_S = 0.02

#: Seconds for PBB on VOPD with tight bounds (16 cores on a 4x4 mesh,
#: ~25 k partials): level arrays read 15-18 ms on the reference host, the
#: loop over partials 377-450 ms.
PBB_VOPD_TIGHT_BUDGET_S = 0.08

#: Seconds to route that mapping's 249 commodities on a fresh mesh.  The
#: level-order sweep reads 3.0-3.2 ms, building each commodity's quadrant
#: DAG and running a heap over it 6-7 ms.
MIN_PATH_100_CORES_BUDGET_S = 0.005

#: Seconds for one wire round trip of the golden-seed ``sim_saturation``
#: round's 16x16 request (960 links, 4 110 flows): ``parse_request`` of the
#: request, then ``SimResponse`` construction, canonical bytes and
#: ``parse_response`` of its response.  One codec walking the dataclass
#: annotations reads 24-30 ms on the reference host (the canonical bytes'
#: ``json.dumps`` is most of it), the hand-written ``to_dict`` /
#: ``from_dict`` pairs it replaced 27-41 ms.
WIRE_ROUND_TRIP_BUDGET_S = 0.05


#: Seconds for ``repro map --app vopd`` in a fresh interpreter, best of three:
#: imports, NMAP, both prices (the split one an LP) and the printout.  On a
#: 2-CPU host loading only scipy's HiGHS core reads 0.39-0.51 s; importing
#: ``scipy.optimize`` and ``scipy.sparse`` to reach it read 0.89-0.97 s.
CLI_MAP_VOPD_COLD_BUDGET_S = 0.7

#: MB of peak RSS one ``nmap-ta`` request on ``pip`` (MCF1 / MCF2 programs
#: through HiGHS) adds to a fresh interpreter that imported ``repro.api``:
#: 0-6 with the core loaded by path, 30-46 when the first LP imported
#: ``scipy.optimize`` and ``scipy.sparse``.
NMAP_TA_RSS_GROWTH_BUDGET_MB = 15

#: Prints the MB of peak RSS one ``nmap-ta`` request adds.
_NMAP_TA_RSS_GROWTH = """
import resource
from repro.api import MapRequest, run
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert run(MapRequest(app="pip", mapper="nmap-ta")).feasible
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter on this one's import path."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )


def _workloads():
    """The e2e benchmark's request generators."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", Path(__file__).parent / "e2e" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _golden_map_suite():
    """The requests of one golden-seed ``map_suite`` round."""
    workloads = _workloads()
    return workloads.map_suite(2004, 0, workloads.SIZES["full"])


def _golden_100_cores():
    """The round's largest NMAP request, as a fresh graph and mesh."""
    inline = [
        request.app
        for request in _golden_map_suite()
        if request.mapper == "nmap" and isinstance(request.app, dict)
    ]
    app = core_graph_from_dict(max(inline, key=lambda graph: len(graph["cores"])))
    assert app.num_cores == 100
    return app, NoCTopology.smallest_mesh_for(100, link_bandwidth=app.total_bandwidth())


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
    """The same order and the frontier scan; the routing is left to a reader."""
    result = benchmark.pedantic(
        pmap, setup=lambda: _random_instance(100, 2100), rounds=5
    )
    assert result.mapping.is_complete
    assert benchmark.stats.stats.min < PMAP_100_CORES_BUDGET_S


def test_runtime_nmap_100_cores(benchmark):
    """~500 rows of swap deltas, each one gather from the gain table."""
    result = benchmark.pedantic(
        nmap_single_path, setup=lambda: (_golden_100_cores(), {}), rounds=5
    )
    assert result.stats["swaps_tried"] == 24_750
    assert benchmark.stats.stats.min < NMAP_100_CORES_BUDGET_S


def test_runtime_min_path_routing_100_cores(benchmark):
    """249 commodities, each one level-order sweep of its quadrant; the mesh
    is fresh each round, so nothing kept on a topology can help."""
    app, mesh = _golden_100_cores()
    commodities = build_commodities(app, nmap_single_path(app, mesh).mapping)

    def fresh_mesh():
        return (mesh.with_uniform_bandwidth(app.total_bandwidth()), commodities), {}

    routing = benchmark.pedantic(min_path_routing, setup=fresh_mesh, rounds=5)
    assert len(routing.paths) == 249
    assert benchmark.stats.stats.min < MIN_PATH_100_CORES_BUDGET_S


def test_runtime_cycle_engine_vopd_trace(benchmark):
    """The object model under the ``cycle`` engine: one step per router with
    work per cycle, each a probe of its inputs and a move of its worms."""
    app = vopd()
    mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
    commodities = build_commodities(app, nmap_single_path(app, mesh).mapping)
    routing = min_path_routing(mesh, commodities)
    config = SimConfig(warmup_cycles=200, measure_cycles=2_000, drain_cycles=500, seed=7)

    def fresh_simulator():
        return (Simulator(build_network(mesh, commodities, routing, config)),), {}

    report = benchmark.pedantic(Simulator.run, setup=fresh_simulator, rounds=5)
    assert report.packets_delivered > 200
    assert benchmark.stats.stats.min < CYCLE_VOPD_TRACE_BUDGET_S


def test_runtime_annealing_25_cores(benchmark):
    """~18k moves: the per-move delta is the whole run."""
    result = benchmark.pedantic(
        annealing_mapping, setup=lambda: _random_instance(25, 2025), rounds=3
    )
    assert result.feasible


def test_runtime_pbb_pip(benchmark):
    """~7.6k partials at a 2000-deep queue, one tree level per array pass."""
    app = pip()
    mesh = NoCTopology.smallest_mesh_for(8, link_bandwidth=app.total_bandwidth())
    result = benchmark.pedantic(pbb, args=(app, mesh), rounds=5)
    assert result.feasible
    assert benchmark.stats.stats.min < PBB_PIP_BUDGET_S


def test_runtime_pbb_vopd_tight_bounds(benchmark):
    """Every level overflows the queue; the tail's nearest-free-node terms
    are a row minimum per anchored flow."""
    app = vopd()
    mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
    result = benchmark.pedantic(
        pbb, args=(app, mesh), kwargs={"tight_bounds": True}, rounds=3
    )
    assert result.feasible and result.stats["queue_overflowed"]
    assert benchmark.stats.stats.min < PBB_VOPD_TIGHT_BUDGET_S


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


def test_runtime_mcf_assembly_map_suite_round(benchmark, monkeypatch):
    """The 30 MCF programs of a golden-seed ``map_suite`` round: everything
    ``routing.split`` does around HiGHS — assembly, matrices, read-back —
    on each request's own cold topology, under a fixed budget."""
    requests = _golden_map_suite()
    spent = {"split": 0.0, "highs": 0.0}
    programs = []

    def timed(key, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - start

        return wrapper

    def highs(*arrays):
        programs.append(len(arrays[0]))
        return solve(*arrays)

    solve = split.solve
    monkeypatch.setattr(split, "solve", timed("highs", highs))
    monkeypatch.setattr(split, "assemble_mcf", timed("split", split.assemble_mcf))
    for method in ("solve", "routing"):
        monkeypatch.setattr(
            split.McfAssembly, method, timed("split", getattr(split.McfAssembly, method))
        )
    assembly_seconds = []

    def one_round():
        spent.update(split=0.0, highs=0.0)
        programs.clear()
        for request in requests:
            run(request)
        assembly_seconds.append(spent["split"] - spent["highs"])

    one_round()  # warm-up: imports, scipy's first call
    benchmark.pedantic(one_round, rounds=3)
    benchmark.extra_info["mcf_assembly_s"] = min(assembly_seconds)
    assert len(programs) == GOLDEN_ROUND_PROGRAMS
    assert min(assembly_seconds) < MCF_ASSEMBLY_BUDGET_S


def test_runtime_lp_golden_round(benchmark, monkeypatch):
    """The 30 HiGHS programs of a golden-seed ``map_suite`` round, captured
    as ``routing.split`` hands them over and solved again under a budget."""
    programs = []

    def captured(*arrays):
        programs.append(arrays)
        return solve(*arrays)

    with monkeypatch.context() as patch:
        patch.setattr(split, "solve", captured)
        for request in _golden_map_suite():
            run(request)
    assert len(programs) == GOLDEN_ROUND_PROGRAMS

    def one_round():
        return [solve(*arrays) for arrays in programs]

    solutions = benchmark.pedantic(one_round, rounds=5, warmup_rounds=1)
    assert sum(solution.is_optimal for solution in solutions) > 0
    assert benchmark.stats.stats.min < LP_GOLDEN_ROUND_BUDGET_S


def test_runtime_wire_round_trip(benchmark):
    """Both ends of the service's wire for the largest response the e2e
    benchmark ships: the canonical bytes are mostly ``json.dumps``, the
    parse mostly the codec's check of every response-table entry."""
    workloads = _workloads()
    request = workloads.sim_saturation(2004, 0, workloads.SIZES["full"])[0]
    response = run(request)
    assert len(response.link_utilization) == 960
    request_payload = request.to_dict()
    fields = {f.name: getattr(response, f.name) for f in dataclasses.fields(response)}
    response_payload = json.loads(canonical_response_bytes(response))

    def round_trip():
        assert parse_request(request_payload) == request
        body = canonical_response_bytes(SimResponse(**fields))
        return body, parse_response(response_payload)

    body, parsed = benchmark.pedantic(round_trip, rounds=10, warmup_rounds=1)
    assert canonical_response_bytes(parsed) == body
    assert benchmark.stats.stats.min < WIRE_ROUND_TRIP_BUDGET_S


def test_runtime_cli_map_vopd_cold(benchmark):
    """A fresh process per round: what a ``repro map`` user waits for, the
    first LP's module loading included."""
    result = benchmark.pedantic(
        _fresh_python, args=("-m", "repro.cli", "map", "--app", "vopd"), rounds=3
    )
    assert "vopd" in result.stdout
    assert benchmark.stats.stats.min < CLI_MAP_VOPD_COLD_BUDGET_S


def test_runtime_nmap_ta_rss_growth(benchmark):
    """What the first LP costs in memory: a pool worker or a CLI run pays it
    once, on its first priced or split-traffic request."""
    result = benchmark.pedantic(_fresh_python, args=("-c", _NMAP_TA_RSS_GROWTH), rounds=1)
    growth = float(result.stdout)
    benchmark.extra_info["rss_growth_mb"] = growth
    assert growth < NMAP_TA_RSS_GROWTH_BUDGET_MB
