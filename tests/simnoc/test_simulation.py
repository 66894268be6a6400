"""End-to-end simulator tests (network build + full runs)."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.errors import SimulationError
from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult
from repro.routing.split import solve_min_congestion
from repro.simnoc.config import SimConfig
from repro.simnoc.network import build_network, commodity_paths
from repro.simnoc.simulator import Simulator, simulate_mapping
from repro.simnoc.stats import LatencyStats, per_commodity_means


def _commodity(index, src, dst, value):
    return Commodity(index, f"s{index}", f"d{index}", src, dst, value)


def _single_path_routing(topology, commodities):
    from repro.routing.min_path import min_path_routing

    return min_path_routing(topology, commodities)


@pytest.fixture
def small_config():
    return SimConfig(
        warmup_cycles=500,
        measure_cycles=4_000,
        drain_cycles=1_500,
        mean_burst_packets=1.0,
        seed=3,
    )


#: A 200-cycle VOPD trace run on mesh:4x4 with a NaN link bandwidth, on
#: every engine: once past the API's own check (the topology must refuse
#: it) and once as a NaN link rate handed to the network builder.  It used
#: to end three ways: ``cycle`` raised, ``event`` never returned and
#: ``vector`` reported.
NAN_BANDWIDTH_SCRIPT = """
from repro.api import MapRequest, SimOptions, SimRequest, TopologySpec, run
from repro.errors import GraphError, SimulationError
from repro.graphs.commodities import build_commodities
from repro.mapping import nmap_single_path
from repro.apps import vopd
from repro.routing.min_path import min_path_routing
from repro.simnoc import SimConfig, Simulator, build_network, list_engines

nan = float("nan")
mesh = TopologySpec.parse("mesh:4x4", 600.0)
object.__setattr__(mesh, "link_bandwidth", nan)
mapped = nmap_single_path(vopd(), TopologySpec.parse("mesh:4x4", 600.0).build(vopd()))
commodities = build_commodities(vopd(), mapped.mapping)
routing = min_path_routing(mapped.mapping.topology, commodities)
config = SimConfig(warmup_cycles=0, measure_cycles=200, drain_cycles=0)
for engine in list_engines():
    request = SimRequest(
        map_request=MapRequest(app="vopd", topology=mesh),
        measure_cycles=200, warmup_cycles=0, drain_cycles=0,
        options=SimOptions(engine=engine),
    )
    for attempt, error in (
        (lambda: run(request), GraphError),
        (lambda: Simulator(build_network(
            mapped.mapping.topology, commodities, routing, config,
            link_rate_flits_per_cycle=nan), engine=engine).run(), SimulationError),
    ):
        try:
            attempt()
        except error as raised:
            assert "nan" in str(raised), raised
        else:
            raise AssertionError(f"{engine} ran on a NaN link bandwidth")
"""


class TestBuildNetwork:
    def test_nan_bandwidth_stops_every_engine_before_it_runs(self):
        subprocess.run([sys.executable, "-c", NAN_BANDWIDTH_SCRIPT], check=True, timeout=120)

    def test_component_counts(self, mesh3x3, small_config):
        commodities = [_commodity(0, 0, 8, 100.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        network = build_network(mesh3x3, commodities, routing, small_config)
        assert len(network.routers) == 9
        assert len(network.interfaces) == 9
        assert len(network.sources) == 1

    def test_link_rates_from_topology(self, small_config):
        mesh = NoCTopology.mesh(2, 2, link_bandwidth=800.0)
        commodities = [_commodity(0, 0, 3, 100.0)]
        routing = _single_path_routing(mesh, commodities)
        network = build_network(mesh, commodities, routing, small_config)
        # 800 MB/s over 4 B x 400 MHz = 0.5 flits/cycle
        assert network.link_rates[(0, 1)] == pytest.approx(0.5)

    def test_link_rate_override(self, mesh3x3, small_config):
        commodities = [_commodity(0, 0, 8, 100.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        network = build_network(
            mesh3x3, commodities, routing, small_config, link_rate_flits_per_cycle=0.25
        )
        assert all(rate == 0.25 for rate in network.link_rates.values())

    def test_commodity_paths_single(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 100.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        paths = commodity_paths(routing, commodities[0])
        assert len(paths) == 1
        assert paths[0][1] == 1.0

    def test_commodity_paths_split(self, mesh3x3):
        commodities = [_commodity(0, 0, 4, 900.0)]
        _lam, routing = solve_min_congestion(mesh3x3, commodities, quadrant_only=True)
        paths = commodity_paths(routing, commodities[0])
        assert len(paths) == 2
        assert sum(w for _p, w in paths) == pytest.approx(1.0)


class TestSimulationRuns:
    def test_packets_delivered_and_measured(self, mesh3x3, small_config):
        commodities = [_commodity(0, 0, 8, 200.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        report = simulate_mapping(mesh3x3, commodities, routing, small_config)
        assert report.stats.count > 10
        assert report.packets_delivered <= report.packets_created

    def test_latency_at_least_physical_minimum(self, mesh3x3, small_config):
        commodities = [_commodity(0, 0, 8, 200.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        report = simulate_mapping(mesh3x3, commodities, routing, small_config)
        # 4 hops + ejection: >= 5 router traversals + 16 flit serialization
        physical_floor = 5 * small_config.router_delay + 16 - 1
        assert report.stats.mean >= physical_floor

    def test_latency_monotone_in_bandwidth(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 400.0), _commodity(1, 2, 6, 400.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        means = []
        for rate in (0.4, 1.0):
            config = SimConfig(
                warmup_cycles=500,
                measure_cycles=8_000,
                drain_cycles=2_000,
                mean_burst_packets=2.0,
                seed=5,
            )
            report = simulate_mapping(
                mesh3x3, commodities, routing, config, link_rate_flits_per_cycle=rate
            )
            means.append(report.stats.mean)
        assert means[0] > means[1]  # slower links -> higher latency

    def test_deterministic_given_seed(self, mesh3x3, small_config):
        commodities = [_commodity(0, 0, 8, 300.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        r1 = simulate_mapping(mesh3x3, commodities, routing, small_config)
        r2 = simulate_mapping(mesh3x3, commodities, routing, small_config)
        assert r1.stats.mean == r2.stats.mean
        assert r1.packets_created == r2.packets_created

    def test_throughput_matches_offered_load(self, mesh3x3):
        config = SimConfig(
            warmup_cycles=1_000,
            measure_cycles=30_000,
            drain_cycles=3_000,
            mean_burst_packets=1.0,
            seed=2,
        )
        commodities = [_commodity(0, 0, 8, 400.0)]  # 0.25 flits/cycle
        routing = _single_path_routing(mesh3x3, commodities)
        report = simulate_mapping(mesh3x3, commodities, routing, config)
        delivered_rate = (
            report.packets_delivered * config.flits_per_packet / config.total_cycles
        )
        assert delivered_rate == pytest.approx(0.25, rel=0.1)

    def test_link_utilization_sane(self, mesh3x3, small_config):
        commodities = [_commodity(0, 0, 2, 400.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        report = simulate_mapping(mesh3x3, commodities, routing, small_config)
        used = [u for u in report.link_utilization.values() if u > 0]
        assert used
        assert all(0 < u <= 1.0 + 1e-9 for u in used)

    def test_split_routing_runs(self, mesh3x3, small_config):
        commodities = [_commodity(0, 0, 4, 900.0)]
        _lam, routing = solve_min_congestion(mesh3x3, commodities, quadrant_only=True)
        report = simulate_mapping(mesh3x3, commodities, routing, small_config)
        assert report.stats.count > 10

    def test_no_measured_packets_raises(self, mesh3x3):
        config = SimConfig(
            warmup_cycles=0, measure_cycles=1, drain_cycles=0, seed=1
        )
        commodities = [_commodity(0, 0, 8, 100.0)]
        routing = _single_path_routing(mesh3x3, commodities)
        with pytest.raises(SimulationError, match="no measured packets"):
            simulate_mapping(mesh3x3, commodities, routing, config)


class TestStats:
    def test_latency_stats_fields(self):
        from repro.simnoc.packet import Packet

        packets = []
        for i, latency in enumerate([10, 20, 30, 40, 50]):
            packet = Packet(i, 0, 0, 1, [0, 1], 4, created_cycle=0)
            packet.injected_cycle = 2
            packet.delivered_cycle = latency
            packets.append(packet)
        stats = LatencyStats.from_packets(packets)
        assert stats.count == 5
        assert stats.mean == 30.0
        assert stats.p50 == 30.0
        assert stats.maximum == 50.0
        assert stats.mean_network == 28.0

    def test_unmeasured_excluded(self):
        from repro.simnoc.packet import Packet

        good = Packet(1, 0, 0, 1, [0, 1], 4, created_cycle=0)
        good.injected_cycle = 0
        good.delivered_cycle = 10
        skipped = Packet(2, 0, 0, 1, [0, 1], 4, created_cycle=0, measured=False)
        skipped.delivered_cycle = 99999
        stats = LatencyStats.from_packets([good, skipped])
        assert stats.count == 1
        assert stats.maximum == 10.0

    def test_empty_raises(self):
        with pytest.raises(SimulationError):
            LatencyStats.from_packets([])

    def test_per_commodity_means(self):
        from repro.simnoc.packet import Packet

        packets = []
        for commodity, latency in [(0, 10), (0, 20), (1, 40)]:
            packet = Packet(
                len(packets), commodity, 0, 1, [0, 1], 4, created_cycle=0
            )
            packet.injected_cycle = 0
            packet.delivered_cycle = latency
            packets.append(packet)
        means = per_commodity_means(packets)
        assert means == {0: 15.0, 1: 40.0}
