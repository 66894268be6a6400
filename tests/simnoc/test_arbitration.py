"""Router arbitration edge cases, parametrized over every engine.

These pin the microarchitectural behaviors that aggregate statistics can
mask: output-port contention resolution, full-buffer backpressure (credit
stalls must delay, never drop or corrupt), and per-flow in-order delivery
(wormhole FIFOs and per-flow VC pinning must prevent overtaking).
"""

from __future__ import annotations

import pytest

from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.min_path import min_path_routing
from repro.simnoc import SimConfig, Simulator, build_network
from tests.simnoc.deliveries import deliveries

ENGINES = ("cycle", "event", "vector")


def _commodity(index, src, dst, value):
    return Commodity(index, f"s{index}", f"d{index}", src, dst, value)


def _run(mesh, commodities, config, engine, **build_kwargs):
    routing = min_path_routing(mesh, commodities)
    network = build_network(mesh, commodities, routing, config, **build_kwargs)
    report = Simulator(network, engine=engine).run()
    return network, report


class TestOutputPortContention:
    """Two flows funneling into one output port must share it fairly."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_both_contenders_delivered(self, engine):
        # On a 1x3 chain, 0->2 and 1->2 both cross link 1->2.
        mesh = NoCTopology.mesh(3, 1, link_bandwidth=1600.0)
        commodities = [
            _commodity(0, 0, 2, 700.0),
            _commodity(1, 1, 2, 700.0),
        ]
        config = SimConfig(
            warmup_cycles=500, measure_cycles=8_000, drain_cycles=1_500, seed=9
        )
        _network, report = _run(mesh, commodities, config, engine)
        # Both flows measured, and neither starved: round-robin arbitration
        # keeps their delivered shares close at equal offered rates.
        counts = {
            flow: stats.count for flow, stats in report.per_flow.items()
        }
        assert set(counts) == {0, 1}
        assert min(counts.values()) > 0.6 * max(counts.values())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_contention_raises_latency_not_loss(self, engine):
        mesh = NoCTopology.mesh(3, 1, link_bandwidth=1600.0)
        config = SimConfig(
            warmup_cycles=500, measure_cycles=8_000, drain_cycles=2_000, seed=9
        )
        solo = [_commodity(0, 0, 2, 700.0)]
        _net, solo_report = _run(mesh, solo, config, engine)
        both = [_commodity(0, 0, 2, 700.0), _commodity(1, 1, 2, 700.0)]
        _net, both_report = _run(mesh, both, config, engine)
        assert both_report.per_flow[0].mean > solo_report.per_flow[0].mean
        # Nothing was dropped: every created packet either arrived or is
        # accounted as still in flight at the horizon.
        assert both_report.packets_delivered <= both_report.packets_created


class TestFullBufferBackpressure:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_slow_drain_backpressure(self, engine):
        """A fast source into a slow link fills every buffer upstream.

        Credits must stall the worm in place (no overflow raises — push
        past capacity is a hard SimulationError) and still deliver
        everything launched before the horizon allows.
        """
        mesh = NoCTopology.mesh(3, 1, link_bandwidth=1600.0)
        commodities = [_commodity(0, 0, 2, 1200.0)]
        config = SimConfig(
            warmup_cycles=500,
            measure_cycles=6_000,
            drain_cycles=2_000,
            seed=5,
            buffer_depth=2,  # minimum legal: backpressure constantly active
            mean_burst_packets=6.0,
        )
        # Slow middle link: 0.25 flits/cycle while the source offers 0.75.
        _network, report = _run(
            mesh, commodities, config, engine, link_rate_flits_per_cycle=0.25
        )
        assert report.packets_delivered > 0
        # The backlog is real: offered load exceeds drain rate, so latency
        # far exceeds the uncongested floor.
        assert report.stats.mean > 100

    @pytest.mark.parametrize("engine", ENGINES)
    def test_backpressured_run_is_engine_exact(self, engine):
        """Same scenario, compared against the reference engine."""
        mesh = NoCTopology.mesh(3, 1, link_bandwidth=1600.0)
        commodities = [_commodity(0, 0, 2, 1200.0)]
        config = SimConfig(
            warmup_cycles=500,
            measure_cycles=6_000,
            drain_cycles=2_000,
            seed=5,
            buffer_depth=2,
            mean_burst_packets=6.0,
        )
        _n1, fast = _run(
            mesh, commodities, config, engine, link_rate_flits_per_cycle=0.25
        )
        _n2, reference = _run(
            mesh, commodities, config, "cycle", link_rate_flits_per_cycle=0.25
        )
        assert fast.stats == reference.stats
        assert fast.per_flow == reference.per_flow


class TestInOrderDeliveryPerFlow:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("num_vcs", [1, 2])
    def test_single_path_flows_deliver_in_creation_order(self, engine, num_vcs):
        """Per flow, delivery order equals creation order.

        Holds for the plain wormhole router (one FIFO per link) and for the
        VC router because the NI pins each flow to one lane — packets of a
        flow can never overtake on another lane.
        """
        mesh = NoCTopology.mesh(3, 3, link_bandwidth=1000.0)
        commodities = [
            _commodity(0, 0, 8, 500.0),
            _commodity(1, 2, 6, 500.0),
            _commodity(2, 1, 7, 300.0),
        ]
        config = SimConfig(
            warmup_cycles=300,
            measure_cycles=5_000,
            drain_cycles=1_500,
            seed=21,
            mean_burst_packets=3.0,
            num_vcs=num_vcs,
        )
        routing = min_path_routing(mesh, commodities)
        network = build_network(mesh, commodities, routing, config)
        sim = Simulator(network, engine=engine)
        sim.run()
        by_flow: dict[int, list] = {}
        for _node, packet_id, commodity, created, delivered in deliveries(sim):
            by_flow.setdefault(commodity, []).append((delivered, created, packet_id))
        assert by_flow, "no deliveries recorded"
        for flow_packets in by_flow.values():
            flow_packets.sort(key=lambda item: item[0])
            created_order = [created for _, created, _ in flow_packets]
            assert created_order == sorted(created_order)
            ids = [packet_id for _, _, packet_id in flow_packets]
            assert ids == sorted(ids)
