"""The batched injection schedule == the engines' heap-polled replay.

``build_schedule`` replays every open-loop source in bulk and merges the
streams by one sort; the ``cycle`` and ``event`` engines poll
``packets_for_cycle`` from a ``(next_event_cycle, index)`` heap.  Both must
register the same packets — ids, cycles, flags, lanes, paths, order — and
leave every source in the same state, or the flattened engines stop being
bit-identical to the oracle.  The schedule holds them as columns and builds
no ``Packet``; ``tests/reference``'s ``schedule_packets`` turns the columns
into objects for the comparison.  The heap loop below is the oracle's
discipline, kept here as the reference.
"""

from __future__ import annotations

import heapq

import pytest

from repro.apps import mpeg4, vopd
from repro.errors import SimulationError
from repro.faults.reroute import fault_reroute
from repro.graphs.commodities import build_commodities
from repro.graphs.topology import NoCTopology
from repro.mapping.nmap import nmap_single_path
from repro.mapping.nmap_split import nmap_with_splitting
from repro.routing.dimension_ordered import xy_path
from repro.simnoc import SimConfig, Simulator, build_network, build_synthetic_network
from repro.simnoc.engines.flat_kernel import KernelProgram
from repro.simnoc.engines.sweep import replay_sources
from repro.simnoc.models import TRAFFIC_PATTERNS, register_traffic_pattern
from repro.simnoc.network import commodity_paths
from repro.simnoc.packet import Packet
from repro.simnoc.router import LOCAL
from repro.simnoc.schedule import build_schedule
from repro.simnoc.synthetic import UniformRandomSource
from repro.simnoc.trace import TraceRecorder
from tests.reference.simnoc import schedule_packets


def heap_polled(sim, lanes):
    """The polling engines' injection discipline, packets registered in order."""
    config = sim.network.config
    sources = sim.network.sources
    measure_end = config.warmup_cycles + config.measure_cycles
    heap = [(source.next_event_cycle, index) for index, source in enumerate(sources)]
    heapq.heapify(heap)
    while heap and heap[0][0] < config.total_cycles:
        cycle, index = heapq.heappop(heap)
        for packet in sources[index].packets_for_cycle(cycle, sim.next_packet_id):
            packet.measured = config.warmup_cycles <= cycle < measure_end
            packet.vc = packet.commodity_index % lanes
            sim.all_packets.append(packet)
        heapq.heappush(heap, (sources[index].next_event_cycle, index))
    return sim.all_packets


def _config(seed, num_vcs, **overrides):
    fields = dict(
        warmup_cycles=100,
        measure_cycles=600,
        drain_cycles=200,
        seed=seed,
        num_vcs=num_vcs,
        vc_buffer_depth=4 if num_vcs > 1 else None,
        mean_burst_packets=2.0,
    )
    fields.update(overrides)
    return SimConfig(**fields)


def _synthetic(pattern, torus):
    def build(seed, num_vcs):
        topology = NoCTopology(4, 4, 1600.0, torus=torus)
        return build_synthetic_network(
            topology, _config(seed, num_vcs), pattern, 0.25
        )

    return build


def _trace(app_factory, link_bandwidth, split):
    app = app_factory()
    mesh = NoCTopology.smallest_mesh_for(app.num_cores, link_bandwidth=link_bandwidth)
    if split:
        result = nmap_with_splitting(app, mesh, quadrant_only=True)
    else:
        result = nmap_single_path(app, mesh)
    commodities = build_commodities(app, result.mapping)
    if split:
        assert any(len(commodity_paths(result.routing, c)) > 1 for c in commodities)

    def build(seed, num_vcs):
        return build_network(
            mesh, commodities, result.routing, _config(seed, num_vcs)
        )

    return build


SCENARIOS = {
    f"{pattern}-{'torus' if torus else 'mesh'}": _synthetic(pattern, torus)
    for pattern in ("uniform", "transpose", "onoff")
    for torus in (False, True)
}
SCENARIOS["trace-vopd-nmap"] = _trace(vopd, 4028.0, split=False)
SCENARIOS["trace-mpeg4-nmap"] = _trace(mpeg4, 6048.0, split=False)
SCENARIOS["trace-vopd-nmap-tm"] = _trace(vopd, 400.0, split=True)
SCENARIOS["trace-mpeg4-nmap-tm"] = _trace(mpeg4, 800.0, split=True)


def _source_states(network):
    return [
        (source.rng.getstate(), source._next_time, source.packets_created)
        for source in network.sources
    ]


class TestScheduleEqualsHeapPolledReplay:
    @pytest.mark.parametrize("num_vcs", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_packets_arrays_and_source_states(self, scenario, seed, num_vcs):
        vc_mode = num_vcs > 1
        polled_sim = Simulator(SCENARIOS[scenario](seed, num_vcs))
        polled = heap_polled(polled_sim, num_vcs)
        assert len(polled) > 50

        sim = Simulator(SCENARIOS[scenario](seed, num_vcs), engine="vector")
        program = KernelProgram(sim, vc_mode)
        schedule = program.schedule
        # Dataclass equality: id, commodity, endpoints, path, flits,
        # created cycle, measured and vc of every packet, in order.
        assert schedule_packets(schedule) == polled
        assert sim.all_packets == []  # the compiled path registers no object
        assert schedule.first_id == polled[0].packet_id
        for column, field in (
            ("commodity", "commodity_index"),
            ("src", "src_node"),
            ("dst", "dst_node"),
            ("measured", "measured"),
        ):
            assert getattr(schedule, column).tolist() == [
                getattr(p, field) for p in polled
            ]
        assert schedule.path_nodes.tolist() == [n for p in polled for n in p.path]
        assert sim.next_packet_id() == polled_sim.next_packet_id()
        assert _source_states(sim.network) == _source_states(polled_sim.network)

        out_index = {spec: p for p, spec in enumerate(program.state.out_specs)}
        assert program.pkt_create.tolist() == [p.created_cycle for p in polled]
        assert program.pkt_last.tolist() == [p.num_flits - 1 for p in polled]
        assert program.pkt_vcl.tolist() == [p.vc for p in polled]
        routes = [
            [out_index[hop] for hop in zip(p.path, p.path[1:] + [LOCAL])]
            for p in polled
        ]
        assert program.route_val.tolist() == [out for route in routes for out in route]
        assert program.route_off.tolist()[1:] == [
            sum(len(route) for route in routes[: k + 1]) for k in range(len(routes))
        ]
        # Per-source-node flit streams, in creation order.
        size = len(program.state.local_in)
        streams = [[] for _ in range(size)]
        for slot, packet in enumerate(polled):
            streams[packet.src_node] += [(slot, seq) for seq in range(packet.num_flits)]
        for node in range(size):
            lo, hi = program.ni_off[node], program.ni_off[node + 1]
            assert (
                list(zip(program.ni_slot[lo:hi].tolist(), program.ni_seq[lo:hi].tolist()))
                == streams[node]
            )
        assert program.ni_ptr.tolist() == program.ni_off[:-1].tolist()

    @pytest.mark.parametrize("scenario", ["uniform-mesh", "trace-mpeg4-nmap-tm"])
    def test_replay_sources_slices_the_same_schedule(self, scenario):
        polled = heap_polled(Simulator(SCENARIOS[scenario](3, 2)), 2)
        sim = Simulator(SCENARIOS[scenario](3, 2))
        outputs = sim.network.fabric.outputs
        out_index = {spec: p for p, spec in enumerate(outputs)}
        schedule = build_schedule(sim, True, outputs)
        chunks = list(replay_sources(schedule, sim.config.total_cycles, 128))
        assert sim.all_packets == []  # the interpreted loops register no object
        assert len(chunks) == -(-sim.config.total_cycles // 128)
        for k, chunk in enumerate(chunks):
            assert all(k * 128 <= cycle < (k + 1) * 128 for cycle, _ in chunk)
        assert [spec for chunk in chunks for spec in chunk] == [
            (
                p.created_cycle,
                (
                    p.packet_id,
                    p.vc,
                    p.src_node,
                    [out_index[hop] for hop in zip(p.path, p.path[1:] + [LOCAL])],
                    p.num_flits,
                ),
            )
            for p in polled
        ]


# ----------------------------------------------------------------------
# sources without a batch method take the polling adapter
# ----------------------------------------------------------------------
class _PollOnlySource:
    """A third-party injector: the documented protocol, no ``schedule``."""

    def __init__(self, topology, src_node, period, config):
        self.topology = topology
        self.src_node = src_node
        self.period = period
        self.flits = config.flits_per_packet
        self.next_event_cycle = src_node % period
        self.sent = 0

    def packets_for_cycle(self, cycle, next_packet_id):
        if cycle != self.next_event_cycle:
            return []
        self.next_event_cycle += self.period
        self.sent += 1
        dst = (self.src_node + self.sent) % self.topology.num_nodes
        if dst == self.src_node:
            return []
        return [
            Packet(
                next_packet_id(),
                self.src_node * self.topology.num_nodes + dst,
                self.src_node,
                dst,
                xy_path(self.topology, self.src_node, dst),
                self.flits,
                cycle,
            )
        ]


class _ReversedUniformSource(UniformRandomSource):
    """Overrides ``packets_for_cycle`` only: YX-ish routes via the reverse path."""

    def packets_for_cycle(self, cycle, next_packet_id):
        packets = super().packets_for_cycle(cycle, next_packet_id)
        for packet in packets:
            packet.path = xy_path(self.topology, packet.dst_node, self.src_node)[::-1]
        return packets


@pytest.fixture
def third_party_patterns():
    @register_traffic_pattern("test-poll-only")
    def poll_only(topology, config, injection_rate):
        period = max(config.flits_per_packet, round(config.flits_per_packet / injection_rate))
        return [_PollOnlySource(topology, n, period, config) for n in topology.nodes]

    @register_traffic_pattern("test-mixed")
    def mixed(topology, config, injection_rate):
        kinds = (_ReversedUniformSource, UniformRandomSource)
        return [
            kinds[node % 2](topology, node, injection_rate, config)
            for node in topology.nodes
        ]

    yield
    TRAFFIC_PATTERNS.remove("test-poll-only")
    TRAFFIC_PATTERNS.remove("test-mixed")


def _run(pattern, engine, num_vcs=1, shards=None):
    topology = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
    network = build_synthetic_network(topology, _config(5, num_vcs), pattern, 0.2)
    recorder = TraceRecorder(max_events=10**6)
    report = Simulator(network, trace=recorder, engine=engine, shards=shards).run()
    return report, recorder.events


class TestPollingAdapter:
    JIT_MODES = ("off", "py", "c", "numba")

    @pytest.mark.parametrize("mode", JIT_MODES)
    @pytest.mark.parametrize("num_vcs", [1, 2])
    @pytest.mark.parametrize("pattern", ["test-poll-only", "test-mixed"])
    def test_vector_matches_cycle(
        self, third_party_patterns, monkeypatch, pattern, num_vcs, mode
    ):
        from repro.simnoc.engines.jit import resolve_backend

        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        monkeypatch.setenv("REPRO_JIT", mode)
        backend, reason = resolve_backend()
        if mode != "off" and backend is None:
            pytest.skip(f"JIT backend {mode!r} unavailable here: {reason}")
        assert _run(pattern, "vector", num_vcs) == _run(pattern, "cycle", num_vcs)

    @pytest.mark.parametrize("pattern", ["test-poll-only", "test-mixed"])
    def test_sharded_matches_cycle(self, third_party_patterns, pattern):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("sharded engine needs fork")
        assert _run(pattern, "sharded", 2, shards=2) == _run(pattern, "cycle", 2)

    def test_the_mro_decides(self, third_party_patterns):
        from repro.simnoc.schedule import _batch_method

        topology = NoCTopology.mesh(3, 3, link_bandwidth=1600.0)
        config = _config(1, 1)
        assert _batch_method(UniformRandomSource(topology, 0, 0.2, config))
        assert _batch_method(_ReversedUniformSource(topology, 0, 0.2, config)) is None
        assert _batch_method(_PollOnlySource(topology, 0, 8, config)) is None

        class Both(_ReversedUniformSource):
            def schedule(self, until):
                return [], [], [], None

        assert _batch_method(Both(topology, 0, 0.2, config))


class TestScheduleEdges:
    @staticmethod
    def _broken_network(fabric):
        """VOPD trace traffic with one commodity routed over a link its fabric lacks.

        On the mesh and the torus the hop jumps to a non-neighbour (a
        direction the node has no output for, or none has); on the degraded
        mesh it crosses the failed link, a direction every other node has.
        """
        app = vopd()
        topology = NoCTopology(4, 4, 4028.0, torus=fabric == "torus")
        result = nmap_single_path(app, topology)
        commodities = build_commodities(app, result.mapping)
        index = 3
        src = commodities[index].src_node
        if fabric == "degraded":
            far = topology.neighbors(src)[0]
            topology = topology.with_failed_links([(src, far)])
            routing = fault_reroute(topology, commodities)
        else:
            far = next(
                node
                for node in topology.nodes
                if node != src and node not in topology.neighbors(src)
            )
            routing = result.routing
        network = build_network(topology, commodities, routing, _config(4, 1))
        source = network.sources[index]
        assert source.src_node == src
        source.paths = [([src, far], 1.0)]
        return network, source, far

    @pytest.mark.parametrize("fabric", ["mesh", "torus", "degraded"])
    @pytest.mark.parametrize("engine", ["vector", "sharded"])
    def test_missing_output_names_node_hop_and_first_packet(self, engine, fabric):
        network, source, far = self._broken_network(fabric)
        polled = heap_polled(Simulator(self._broken_network(fabric)[0]), 1)
        first = next(p for p in polled if p.commodity_index == source.commodity_index)
        with pytest.raises(SimulationError) as caught:
            Simulator(network, engine=engine, shards=2).run()
        assert str(caught.value) == (
            f"node {source.src_node} has no output toward {far} "
            f"(packet {first.packet_id})"
        )

    def test_no_packets_before_total_cycles(self):
        topology = NoCTopology.mesh(3, 3, link_bandwidth=1600.0)
        config = _config(1, 1, warmup_cycles=0, measure_cycles=2, drain_cycles=0)

        def quiet_network():
            network = build_synthetic_network(topology, config, "uniform", 0.001)
            for source in network.sources:
                source._next_time = 50.0
            return network

        sim = Simulator(quiet_network())
        schedule = build_schedule(sim, False, sim.network.fabric.outputs)
        assert schedule_packets(schedule) == [] and schedule.first_id == 1
        lengths = {name: len(getattr(schedule, name)) for name in schedule._fields[1:]}
        assert lengths.pop("route_off") == 1 and set(lengths.values()) == {0}
        assert sim.next_packet_id() == 1
        assert list(replay_sources(schedule, config.total_cycles, 1)) == [[], []]
        # Every engine runs the empty schedule to the same end.
        errors = []
        for engine in ("vector", "sharded", "cycle"):
            with pytest.raises(SimulationError, match="no measured packets") as caught:
                Simulator(quiet_network(), engine=engine, shards=1).run()
            errors.append(str(caught.value))
        assert len(set(errors)) == 1
