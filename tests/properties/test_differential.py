"""Differential fuzzer: every engine name, on every JIT mode, == the object model.

One strategy draws a whole simulation: a topology (mesh, torus, odd sizes,
1xN), an application placed on it or a synthetic pattern (``uniform``,
``transpose``, ``onoff``) at a drawn load, a VC count of 1, 2 or one
above the kernels' lane cap, an optional fault scenario that leaves the
fabric connected, a trace recorder (none, open, capped mid-run or already
full), an engine name from ``list_engines()`` and a JIT mode (``c``,
``REPRO_JIT=py`` or ``REPRO_NO_JIT=1``).  The run must give the object-model
oracle's report — every field, per-flow key order included — and its flit
trace, or raise its exact error.  The pinned examples hold the corners the
draws reach rarely: the deadlock exit, more lanes than the compiled
kernels take, and a recorder with no room left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from repro.errors import FaultError, ReproError
from repro.faults import fault_reroute
from repro.faults.spec import FaultSpec
from repro.graphs.commodities import Commodity, build_commodities
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult
from repro.routing.min_path import min_path_routing
from repro.simnoc import SimConfig, Simulator, build_network, build_synthetic_network
from repro.simnoc.engines import list_engines
from repro.simnoc.engines.flat_kernel import MAX_KERNEL_VCS
from repro.simnoc.trace import TraceRecorder
from tests.properties.test_seed_oracles import fabrics, placements

#: Every name a request may give, drawn outside the oracle's registration.
ENGINE_NAMES = list_engines()

#: ``c`` (the default rung), ``py`` (the kernel twin in CPython) and
#: ``off`` (``REPRO_NO_JIT=1``: the interpreted sweep).
JIT_MODES = ("c", "py", "off")

#: none, room for everything, room for 40 events, already full.
RECORDERS = ("none", "open", "capped", "full")


@dataclass(frozen=True)
class Case:
    """One simulation, built afresh for each engine that runs it.

    ``pattern`` is ``"app"`` for commodity traffic over ``routing`` at
    ``load`` times the commodities' rates, else a synthetic pattern offered
    at ``load`` flits/cycle per node.
    """

    topology: NoCTopology
    config: SimConfig
    pattern: str
    load: float
    commodities: list = field(default_factory=list)
    routing: RoutingResult | None = None

    def build(self):
        if self.pattern == "app":
            return build_network(
                self.topology,
                self.commodities,
                self.routing,
                self.config,
                bandwidth_scale=self.load,
            )
        return build_synthetic_network(
            self.topology, self.config, self.pattern, self.load
        )


def _connected(topology: NoCTopology) -> bool:
    healthy = topology.healthy_nodes()
    seen, frontier = {healthy[0]}, [healthy[0]]
    while frontier:
        for neighbor in topology.neighbors(frontier.pop()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(healthy)


@st.composite
def fault_specs(draw, topology):
    """A fault scenario that leaves the healthy nodes connected, or ``None``."""
    kind = draw(st.sampled_from(["none", "links", "router", "degraded"]))
    pairs = sorted({tuple(sorted(key)) for key in topology.link_keys()})
    if kind == "none" or (kind == "router" and topology.num_nodes < 4):
        return None
    if kind == "router":
        spec = FaultSpec(failed_routers=(draw(st.integers(0, topology.num_nodes - 1)),))
    else:
        links = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2, unique=True))
        if kind == "links":
            spec = FaultSpec(failed_links=tuple(links))
        else:
            spec = FaultSpec(degraded_links=tuple((a, b, 0.5) for a, b in links))
    return spec if _connected(spec.apply(topology)) else None


@st.composite
def cases(draw):
    pristine = draw(fabrics(damaged=False))
    # 800 / 1600 / 4000 MB/s links carry 0.5 / 1 / 2.5 flits a cycle.
    topology = pristine.with_uniform_bandwidth(draw(st.sampled_from([800.0, 1600.0, 4000.0])))
    num_vcs = draw(st.sampled_from([1, 2, MAX_KERNEL_VCS + 1]))
    config = SimConfig(
        packet_bytes=draw(st.sampled_from([4, 16, 64])),
        buffer_depth=draw(st.sampled_from([2, 4])),
        router_delay=draw(st.sampled_from([1, 3])),
        warmup_cycles=50,
        measure_cycles=draw(st.sampled_from([150, 400])),
        drain_cycles=150,
        mean_burst_packets=draw(st.sampled_from([1.0, 3.0])),
        seed=draw(st.integers(0, 2**16)),
        num_vcs=num_vcs,
        vc_buffer_depth=draw(st.sampled_from([None, 2])) if num_vcs > 1 else None,
    )
    load = draw(st.sampled_from([0.02, 0.1, 0.3]))
    patterns = ["app", "uniform", "onoff"]
    if topology.width == topology.height:
        patterns.append("transpose")
    pattern = draw(st.sampled_from(patterns))
    if pattern != "app":
        return Case(topology, config, pattern, load)

    spec = draw(fault_specs(topology))
    fabric = topology if spec is None else spec.apply(topology)
    mapping = draw(placements(complete=True, fabric=fabric))
    commodities = build_commodities(mapping.core_graph, mapping)
    if spec is None:
        routing = min_path_routing(fabric, commodities)
    else:
        try:
            routing = fault_reroute(fabric, commodities)
        except FaultError:  # the detour closes a channel-dependency cycle
            reject()
    # The heaviest commodity offers ``load`` flits/cycle, the rest in proportion.
    heaviest = max((c.value for c in commodities), default=1.0)
    scale = load / config.mbps_to_flits_per_cycle(heaviest)
    return Case(fabric, config, "app", scale, commodities, routing)


def deadlocking_ring(num_vcs: int) -> Case:
    """Four 16-flit worms on a 4-node ring, each holding the 2-flit buffer
    the next waits for: every engine stalls for good within 40 cycles and
    must leave through the deadlock exit with the same message."""
    nodes = 4
    topology = NoCTopology.torus_grid(nodes, 1, link_bandwidth=1600.0)
    commodities = [
        Commodity(i, f"c{i}", f"c{(i - 1) % nodes}", i, (i - 1) % nodes, 700.0)
        for i in range(nodes)
    ]
    clockwise = {i: [(i + hop) % nodes for hop in range(nodes)] for i in range(nodes)}
    config = SimConfig(
        buffer_depth=2,
        warmup_cycles=0,
        measure_cycles=60_000,
        drain_cycles=0,
        num_vcs=num_vcs,
        vc_buffer_depth=2 if num_vcs > 1 else None,
    )
    routing = RoutingResult(topology, commodities, flows={}, paths=clockwise)
    return Case(topology, config, "app", 1.0, commodities, routing)


def saturated_mesh(num_vcs: int, pattern: str = "uniform") -> Case:
    """Synthetic traffic above the knee on a 4x4 mesh."""
    config = SimConfig(
        warmup_cycles=100,
        measure_cycles=600,
        drain_cycles=200,
        seed=3,
        num_vcs=num_vcs,
        vc_buffer_depth=4 if num_vcs > 1 else None,
    )
    return Case(NoCTopology.mesh(4, 4, link_bandwidth=1600.0), config, pattern, 0.3)


def _recorder(kind: str) -> TraceRecorder | None:
    if kind == "none":
        return None
    if kind == "full":
        recorder = TraceRecorder(max_events=4)
        recorder.events.extend(["earlier run"] * 4)
        return recorder
    return TraceRecorder(max_events=40 if kind == "capped" else 10**6)


def _outcome(case: Case, engine: str, recorder_kind: str):
    """The run's report (with its per-flow key order) and flit trace, or the
    error it raised, message included."""
    recorder = _recorder(recorder_kind)
    try:
        report = Simulator(case.build(), trace=recorder, engine=engine).run()
        result = (report, list(report.per_flow))
    except ReproError as error:
        result = (type(error), str(error))
    if recorder is None:
        return result
    return result, recorder.events, recorder.truncated


def _pin_jit(patch: pytest.MonkeyPatch, mode: str) -> None:
    if mode == "off":
        patch.setenv("REPRO_NO_JIT", "1")
        patch.delenv("REPRO_JIT", raising=False)
    else:
        patch.delenv("REPRO_NO_JIT", raising=False)
        patch.setenv("REPRO_JIT", mode)


@given(
    case=cases(),
    engine=st.sampled_from(ENGINE_NAMES),
    jit=st.sampled_from(JIT_MODES),
    recorder=st.sampled_from(RECORDERS),
)
@example(case=deadlocking_ring(1), engine="vector", jit="c", recorder="none")
@example(case=deadlocking_ring(2), engine="cycle", jit="off", recorder="open")
@example(case=saturated_mesh(MAX_KERNEL_VCS + 1), engine="vector", jit="c", recorder="open")
@example(case=saturated_mesh(1), engine="vector", jit="c", recorder="full")
@example(case=saturated_mesh(2, "transpose"), engine="auto", jit="py", recorder="capped")
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_engine_matches_the_object_model(object_engine, case, engine, jit, recorder):
    with pytest.MonkeyPatch.context() as patch:
        _pin_jit(patch, jit)
        produced = _outcome(case, engine, recorder)
    assert produced == _outcome(case, object_engine, recorder)

