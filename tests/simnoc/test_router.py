"""Unit tests for the wormhole router (direct port-level drive)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simnoc.packet import Packet, make_flits
from repro.simnoc.router import LOCAL, Router


def _router(node=0, neighbors=(1,), rate=1.0, depth=4, delay=1):
    outputs = {LOCAL: (1.0, float("inf"))}
    for n in neighbors:
        outputs[n] = (rate, 4.0)
    return Router(
        node,
        [LOCAL, *neighbors],
        outputs,
        buffer_depth=depth,
        router_delay=delay,
    )


def _packet(pid, path, flits=3):
    return Packet(
        packet_id=pid,
        commodity_index=0,
        src_node=path[0],
        dst_node=path[-1],
        path=list(path),
        num_flits=flits,
        created_cycle=0,
    )


class Collector:
    def __init__(self):
        self.events = []

    def __call__(self, from_node, to_key, flit, cycle):
        self.events.append((from_node, to_key, flit, cycle))


class TestForwarding:
    def test_head_to_tail_in_order(self):
        router = _router()
        packet = _packet(1, [0, 1])
        for flit in make_flits(packet):
            router.inputs[LOCAL].push(flit, 0)
        sink = Collector()
        total = 0
        for cycle in range(1, 10):
            total += router.step(cycle, sink)
        assert total == 3
        sequences = [event[2].sequence for event in sink.events]
        assert sequences == [0, 1, 2]

    def test_router_delay_respected(self):
        router = _router(delay=3)
        packet = _packet(1, [0, 1])
        router.inputs[LOCAL].push(make_flits(packet)[0], 0)
        sink = Collector()
        assert router.step(1, sink) == 0
        assert router.step(2, sink) == 0
        assert router.step(3, sink) == 1  # visible at cycle 0 + 3

    def test_ejection_at_destination(self):
        router = _router(node=1, neighbors=(0,))
        packet = _packet(1, [0, 1])  # node 1 is the last hop
        router.inputs[0].push(make_flits(packet)[0], 0)
        sink = Collector()
        router.step(1, sink)
        assert sink.events[0][1] == LOCAL  # ejected

    def test_slow_link_serializes(self):
        router = _router(rate=0.5)
        packet = _packet(1, [0, 1], flits=4)
        for flit in make_flits(packet):
            router.inputs[LOCAL].push(flit, 0)
        sink = Collector()
        moved_per_cycle = [router.step(cycle, sink) for cycle in range(1, 12)]
        # 0.5 flits/cycle: at most one flit every other cycle after warmup
        assert sum(moved_per_cycle) == 4
        assert max(moved_per_cycle) == 1

    def test_fast_link_multi_flit(self):
        router = _router(rate=2.0)
        packet = _packet(1, [0, 1], flits=4)
        for flit in make_flits(packet):
            router.inputs[LOCAL].push(flit, 0)
        sink = Collector()
        moved_first = router.step(1, sink)
        assert moved_first >= 2  # rate 2 moves multiple flits per cycle


class TestWormhole:
    def test_output_locked_until_tail(self):
        router = _router(neighbors=(1,))
        p1 = _packet(1, [0, 1], flits=3)
        p2 = _packet(2, [0, 1], flits=3)
        # interleave at two inputs: p1 on LOCAL, p2 from neighbor 9? use both
        router2 = _router(neighbors=(1, 2))
        del router2
        for flit in make_flits(p1):
            router.inputs[LOCAL].push(flit, 0)
        sink = Collector()
        router.step(1, sink)
        port = router.outputs[1]
        assert port.owner == LOCAL
        for cycle in range(2, 6):
            router.step(cycle, sink)
        assert port.owner is None  # released after tail

    def test_arbitration_round_robin(self):
        router = _router(node=1, neighbors=(0, 2))
        # two packets from different inputs both heading to output 2
        pa = _packet(1, [0, 1, 2], flits=1)
        pb = _packet(2, [1, 2], flits=1)
        router.inputs[0].push(make_flits(pa)[0], 0)
        router.inputs[LOCAL].push(make_flits(pb)[0], 0)
        sink = Collector()
        router.step(1, sink)
        router.step(2, sink)
        winners = [event[2].packet.packet_id for event in sink.events]
        assert sorted(winners) == [1, 2]  # both eventually served

    def test_credit_starvation_blocks(self):
        router = _router(neighbors=(1,))
        router.outputs[1].credits = 0.0
        packet = _packet(1, [0, 1], flits=2)
        for flit in make_flits(packet):
            router.inputs[LOCAL].push(flit, 0)
        sink = Collector()
        assert router.step(1, sink) == 0  # blocked on credits

    def test_credit_return_on_pop(self):
        upstream = _router(node=0, neighbors=(1,))
        downstream = _router(node=1, neighbors=(0, 2))
        downstream.inputs[0].feeder = upstream.outputs[1]
        upstream.outputs[1].credits = 1.0
        flit = make_flits(_packet(1, [0, 1], flits=1))[0]
        downstream.inputs[0].push(flit, 0)
        assert downstream.step(1, Collector()) == 1  # ejected: a pop
        assert upstream.outputs[1].credits == 2.0


class TestErrors:
    def test_buffer_overflow_raises(self):
        router = _router(depth=2)
        packet = _packet(1, [0, 1], flits=4)
        flits = make_flits(packet)
        router.inputs[LOCAL].push(flits[0], 0)
        router.inputs[LOCAL].push(flits[1], 0)
        with pytest.raises(SimulationError, match="overflow"):
            router.inputs[LOCAL].push(flits[2], 0)

    def test_route_missing_node(self):
        router = _router(node=5, neighbors=(1,))
        packet = _packet(1, [0, 1])
        with pytest.raises(SimulationError, match="not on its path"):
            router.next_hop_key(make_flits(packet)[0])

    def test_route_missing_output(self):
        router = _router(node=0, neighbors=(1,))
        packet = _packet(1, [0, 7])
        with pytest.raises(SimulationError, match="no output"):
            router.next_hop_key(make_flits(packet)[0])
