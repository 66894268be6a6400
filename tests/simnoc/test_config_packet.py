"""Unit tests for SimConfig and the packet/flit model."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simnoc.config import SimConfig
from repro.simnoc.packet import FlitKind, Packet
from tests.reference.router import is_last_flit, make_flits


class TestSimConfig:
    def test_defaults_valid(self):
        config = SimConfig()
        assert config.flits_per_packet == 16  # 64 B / 4 B

    def test_flits_per_packet_rounds_up(self):
        config = SimConfig(packet_bytes=65)
        assert config.flits_per_packet == 17

    def test_mbps_conversion(self):
        config = SimConfig(clock_hz=400e6, flit_bytes=4)
        # 1600 MB/s over 1.6 GB/s of link = 1 flit/cycle
        assert config.mbps_to_flits_per_cycle(1600.0) == pytest.approx(1.0)

    def test_gbps_conversion(self):
        config = SimConfig(clock_hz=400e6, flit_bytes=4)
        assert config.gbps_link_rate(1.6) == pytest.approx(1.0)
        assert config.gbps_link_rate(0.8) == pytest.approx(0.5)

    def test_total_cycles(self):
        config = SimConfig(warmup_cycles=10, measure_cycles=20, drain_cycles=5)
        assert config.total_cycles == 35

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clock_hz": 0},
            {"flit_bytes": 0},
            {"packet_bytes": 1, "flit_bytes": 4},
            {"buffer_depth": 1},
            {"router_delay": 0},
            {"mean_burst_packets": 0.5},
            {"warmup_cycles": -1},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(SimulationError):
            SimConfig(**kwargs)


def _packet(num_flits=4):
    return Packet(
        packet_id=1,
        commodity_index=0,
        src_node=0,
        dst_node=3,
        path=[0, 1, 3],
        num_flits=num_flits,
        created_cycle=0,
    )


class TestFlits:
    def test_make_flits_kinds(self):
        flits = make_flits(_packet(4))
        assert [f.kind for f in flits] == [
            FlitKind.HEAD,
            FlitKind.BODY,
            FlitKind.BODY,
            FlitKind.TAIL,
        ]

    def test_single_flit_packet(self):
        flits = make_flits(_packet(1))
        assert len(flits) == 1
        assert flits[0].is_head
        assert is_last_flit(flits[0])

    def test_is_last_flit(self):
        flits = make_flits(_packet(3))
        assert not is_last_flit(flits[0])
        assert is_last_flit(flits[2])

    def test_latency_requires_delivery(self):
        packet = _packet()
        with pytest.raises(SimulationError):
            _ = packet.latency
        packet.delivered_cycle = 10
        assert packet.latency == 10

    def test_network_latency(self):
        packet = _packet()
        packet.injected_cycle = 3
        packet.delivered_cycle = 13
        assert packet.network_latency == 10
        assert packet.latency == 13
