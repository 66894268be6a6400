"""Unit tests for the virtual-channel wormhole router (direct port drive)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simnoc.config import SimConfig
from repro.simnoc.packet import Packet, make_flits
from repro.simnoc.router import LOCAL
from repro.simnoc.vc_router import VCRouter


def _router(node=0, neighbors=(1,), rate=1.0, num_vcs=2, depth=4, delay=1):
    outputs = {LOCAL: (1.0, float("inf"))}
    for n in neighbors:
        outputs[n] = (rate, 4.0)
    return VCRouter(
        node,
        [LOCAL, *neighbors],
        outputs,
        num_vcs=num_vcs,
        vc_buffer_depth=depth,
        router_delay=delay,
    )


def _packet(pid, path, flits=3, vc=0):
    packet = Packet(
        packet_id=pid,
        commodity_index=0,
        src_node=path[0],
        dst_node=path[-1],
        path=list(path),
        num_flits=flits,
        created_cycle=0,
    )
    packet.vc = vc
    return packet


class Collector:
    def __init__(self):
        self.events = []

    def __call__(self, from_node, to_key, flit, cycle):
        self.events.append((from_node, to_key, flit, cycle))


class TestLaneIsolation:
    def test_worms_interleave_across_lanes(self):
        """Two worms on different VCs share one physical link flit by flit."""
        router = _router(node=1, neighbors=(0, 2))
        pa = _packet(1, [1, 2], flits=4, vc=0)
        pb = _packet(2, [0, 1, 2], flits=4, vc=1)
        for flit in make_flits(pa):
            router.inputs[LOCAL].push(flit, 0)
        for flit in make_flits(pb):
            router.inputs[0].push(flit, 0)
        sink = Collector()
        for cycle in range(1, 12):
            router.step(cycle, sink)
        assert len(sink.events) == 8
        # With a 1 flit/cycle link and both lanes allocated, the round-robin
        # interleaves the two packets rather than serializing worm-by-worm.
        first_eight = [event[2].packet.packet_id for event in sink.events]
        assert first_eight[:4] != [1, 1, 1, 1]
        assert set(first_eight) == {1, 2}

    def test_blocked_lane_does_not_stall_other_lane(self):
        """Zero credits on VC0 must leave VC1 traffic flowing."""
        router = _router(node=1, neighbors=(0, 2))
        port = router.outputs[2]
        port.vc_credits[0] = 0.0  # downstream VC0 buffer full
        pa = _packet(1, [1, 2], flits=3, vc=0)
        pb = _packet(2, [1, 2], flits=3, vc=1)
        for flit in make_flits(pa):
            router.inputs[LOCAL].push(flit, 0)
        for flit in make_flits(pb):
            router.inputs[LOCAL].push(flit, 0)
        sink = Collector()
        for cycle in range(1, 10):
            router.step(cycle, sink)
        moved_ids = {event[2].packet.packet_id for event in sink.events}
        assert moved_ids == {2}  # VC1's worm got through, VC0's is parked
        assert port.vc_owner[0] == LOCAL  # still allocated, waiting on credit

    def test_per_lane_buffer_overflow_raises(self):
        router = _router(depth=2)
        packet = _packet(1, [0, 1], flits=4, vc=1)
        flits = make_flits(packet)
        router.inputs[LOCAL].push(flits[0], 0)
        router.inputs[LOCAL].push(flits[1], 0)
        with pytest.raises(SimulationError, match="overflow"):
            router.inputs[LOCAL].push(flits[2], 0)

    def test_lanes_have_independent_capacity(self):
        router = _router(depth=2)
        a = make_flits(_packet(1, [0, 1], flits=2, vc=0))
        b = make_flits(_packet(2, [0, 1], flits=2, vc=1))
        for flit in a:
            router.inputs[LOCAL].push(flit, 0)
        for flit in b:  # would overflow a shared FIFO of depth 2
            router.inputs[LOCAL].push(flit, 0)
        assert router.inputs[LOCAL].occupancy == 4


class TestCreditFlow:
    def test_pop_returns_credit_to_feeder_lane(self):
        upstream = _router(node=0, neighbors=(1,))
        downstream = _router(node=1, neighbors=(0, 2))
        downstream.inputs[0].feeder = upstream.outputs[1]
        upstream.outputs[1].vc_credits[1] = 1.0
        flit = make_flits(_packet(1, [0, 1], flits=1, vc=1))[0]
        downstream.inputs[0].push(flit, 0)
        downstream.inputs[0].pop(1)
        assert upstream.outputs[1].vc_credits[1] == 2.0

    def test_awaits_credit_tracks_lane_owners(self):
        router = _router(neighbors=(1,))
        assert not router.awaits_credit(1)
        packet = _packet(1, [0, 1], flits=3, vc=0)
        for flit in make_flits(packet):
            router.inputs[LOCAL].push(flit, 0)
        router.step(1, Collector())
        assert router.awaits_credit(1)


class TestEngineContract:
    def test_idle_and_buffered_flits(self):
        router = _router()
        assert router.is_idle()
        assert router.buffered_flits() == 0
        router.inputs[LOCAL].push(make_flits(_packet(1, [0, 1], flits=1))[0], 0)
        assert not router.is_idle()
        assert router.buffered_flits() == 1

    def test_next_action_cycle_reports_visibility(self):
        router = _router(delay=5)
        router.inputs[LOCAL].push(make_flits(_packet(1, [0, 1], flits=1))[0], 3)
        assert router.next_action_cycle(4) == 8  # enter 3 + delay 5

    def test_next_action_cycle_reports_token_readiness(self):
        router = _router(rate=0.25, delay=1)
        for flit in make_flits(_packet(1, [0, 1], flits=3)):
            router.inputs[LOCAL].push(flit, 0)
        sink = Collector()
        router.step(1, sink)  # allocates the lane; tokens may be short
        nxt = router.next_action_cycle(1)
        assert nxt is not None and nxt > 1

    def test_vcs_build_the_vc_router(self):
        from repro.graphs.topology import NoCTopology
        from repro.simnoc.network import build_fabric

        config = SimConfig(num_vcs=3, vc_buffer_depth=5)
        assert config.effective_router_model == "wormhole-vc"
        routers = build_fabric(NoCTopology.mesh(2, 1), config).build_routers()
        assert all(isinstance(router, VCRouter) for router in routers.values())
        assert routers[0].num_vcs == 3
        assert routers[0].inputs[LOCAL].vc_capacity == 5

    def test_unknown_router_model_rejected_at_construction(self):
        with pytest.raises(
            SimulationError,
            match="unknown router model 'crossbar-9000'; known: auto, "
            "wormhole, wormhole-vc",
        ):
            SimConfig(router_model="crossbar-9000")

    def test_per_link_model_rejects_vcs_at_build(self):
        """Credits are sized from the model's declared buffer geometry; a
        per-link model cannot carry virtual channels."""
        from repro.graphs.topology import NoCTopology
        from repro.simnoc.network import build_fabric

        mesh = NoCTopology.mesh(2, 2, link_bandwidth=800.0)
        config = SimConfig(num_vcs=4, router_model="wormhole")
        with pytest.raises(SimulationError, match="buffers per link"):
            build_fabric(mesh, config)

    def test_vc_model_credits_match_lane_depth(self):
        """Downstream credits equal the actual per-lane FIFO capacity, even
        when vc_buffer_depth differs from the global buffer_depth."""
        from repro.graphs.topology import NoCTopology
        from repro.simnoc.network import build_fabric

        mesh = NoCTopology.mesh(2, 2, link_bandwidth=800.0)
        config = SimConfig(num_vcs=2, vc_buffer_depth=3, buffer_depth=8)
        fabric = build_fabric(mesh, config)
        assert fabric.in_cap == [3] * len(fabric.inputs)
        routers = fabric.build_routers()
        port = routers[0].outputs[1]
        assert port.vc_credits == [3.0, 3.0]
        assert routers[1].inputs[0].vc_capacity == 3
