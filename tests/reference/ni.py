"""Network interfaces: packetization at injection, statistics at ejection.

The NI mirrors ×pipes' network interface macro at the level the evaluation
needs: it owns an unbounded injection queue of flits (the core can always
hand data over; backpressure shows up as queueing delay, which is part of
packet latency), feeds the router's local input port one flit per cycle
when a buffer slot is free, and timestamps deliveries on the ejection side.

When the attached router runs virtual channels, the NI is also where a
packet is pinned to its lane: ``commodity_index % num_vcs``, so every packet
of one flow rides the same VC end to end and per-flow delivery order is
preserved (packets of one flow cannot overtake each other on another lane).
The injection queue stays a single FIFO — a head-of-line packet whose lane
is full stalls later packets, which is the backpressure a real NI sees.
"""

from __future__ import annotations

from collections import deque

from repro.simnoc.packet import Flit, Packet
from tests.reference.router import is_last_flit, make_flits


class NetworkInterface:
    """Injection/ejection endpoint attached to one router's local port."""

    __slots__ = (
        "node",
        "router",
        "num_vcs",
        "injection_queue",
        "delivered_packets",
        "flits_injected",
        "flits_ejected",
    )

    def __init__(self, node: int, router, num_vcs: int = 1) -> None:
        self.node = node
        self.router = router
        self.num_vcs = num_vcs
        self.injection_queue: deque[Flit] = deque()
        self.delivered_packets: list[Packet] = []
        self.flits_injected = 0
        self.flits_ejected = 0

    # ------------------------------------------------------------------
    # injection side
    # ------------------------------------------------------------------
    def offer_packet(self, packet: Packet) -> None:
        """Queue a packet's flits for injection (assigning its lane)."""
        packet.vc = packet.commodity_index % self.num_vcs
        self.injection_queue.extend(make_flits(packet))

    def inject(self, cycle: int, local_key: int) -> int:
        """Move up to one flit into the router's local input port.

        Returns the number of flits moved (0 or 1).
        """
        if not self.injection_queue:
            return 0
        port = self.router.inputs[local_key]
        flit = self.injection_queue[0]
        if not port.can_accept(flit):
            return 0
        self.injection_queue.popleft()
        if flit.is_head and flit.packet.injected_cycle is None:
            flit.packet.injected_cycle = cycle
        port.push(flit, cycle)
        self.flits_injected += 1
        return 1

    @property
    def backlog_flits(self) -> int:
        return len(self.injection_queue)

    # ------------------------------------------------------------------
    # ejection side
    # ------------------------------------------------------------------
    def eject(self, flit: Flit, cycle: int) -> None:
        """Receive a flit leaving the network at this node."""
        self.flits_ejected += 1
        if is_last_flit(flit):
            flit.packet.delivered_cycle = cycle
            self.delivered_packets.append(flit.packet)
