"""Unit tests for the jitter/latency-variance statistics."""

from __future__ import annotations

import pytest

from repro.simnoc.packet import Packet
from tests.reference.simnoc import per_commodity_jitter, per_commodity_latency_std


def _delivered(commodity, delivered_cycle, created=0):
    packet = Packet(
        packet_id=delivered_cycle,
        commodity_index=commodity,
        src_node=0,
        dst_node=1,
        path=[0, 1],
        num_flits=4,
        created_cycle=created,
    )
    packet.injected_cycle = created
    packet.delivered_cycle = delivered_cycle
    return packet


class TestJitter:
    def test_regular_deliveries_zero_jitter(self):
        packets = [_delivered(0, t) for t in (10, 20, 30, 40)]
        assert per_commodity_jitter(packets)[0] == 0.0

    def test_irregular_deliveries_positive_jitter(self):
        packets = [_delivered(0, t) for t in (10, 12, 40, 41)]
        assert per_commodity_jitter(packets)[0] > 0.0

    def test_commodities_independent(self):
        packets = [_delivered(0, t) for t in (10, 20, 30)]
        packets += [_delivered(1, t) for t in (5, 6, 50)]
        jitter = per_commodity_jitter(packets)
        assert jitter[0] == 0.0
        assert jitter[1] > 0.0

    def test_single_packet_zero(self):
        assert per_commodity_jitter([_delivered(0, 10)])[0] == 0.0

    def test_unmeasured_excluded(self):
        regular = [_delivered(0, t) for t in (10, 20, 30)]
        straggler = _delivered(0, 500)
        straggler.measured = False
        assert per_commodity_jitter(regular + [straggler])[0] == 0.0

    def test_order_insensitive(self):
        forward = [_delivered(0, t) for t in (10, 25, 30)]
        backward = list(reversed(forward))
        assert per_commodity_jitter(forward) == per_commodity_jitter(backward)


class TestLatencyStd:
    def test_constant_latency_zero_std(self):
        packets = [_delivered(0, t + 7, created=t) for t in (0, 10, 20)]
        assert per_commodity_latency_std(packets)[0] == 0.0

    def test_mixed_path_lengths_positive_std(self):
        packets = [
            _delivered(0, 7, created=0),
            _delivered(0, 31, created=10),  # latency 21 (longer path)
            _delivered(0, 27, created=20),  # latency 7
        ]
        assert per_commodity_latency_std(packets)[0] > 0.0


class TestEndToEnd:
    def test_report_contains_jitter(self, mesh3x3):
        from repro.graphs.commodities import Commodity
        from repro.routing.min_path import min_path_routing
        from repro.simnoc import SimConfig, simulate_mapping

        commodities = [Commodity(0, "a", "b", 0, 8, 300.0)]
        routing = min_path_routing(mesh3x3, commodities)
        config = SimConfig(
            warmup_cycles=500, measure_cycles=5_000, drain_cycles=1_000, seed=1
        )
        report = simulate_mapping(mesh3x3, commodities, routing, config)
        assert 0 in report.per_commodity_jitter
        assert report.per_commodity_jitter[0] >= 0.0
        assert 0 in report.per_commodity_latency_std
