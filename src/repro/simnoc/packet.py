"""Packets and flits — the units the wormhole network moves."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SimulationError


class FlitKind(enum.Enum):
    """Wormhole flit roles: the head allocates, the tail releases."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"


@dataclass(slots=True)
class Packet:
    """One network packet, created by a traffic source at a network interface.

    Attributes:
        packet_id: globally unique id.
        commodity_index: the commodity (core-graph edge) this packet belongs
            to.
        src_node: injecting mesh node.
        dst_node: ejecting mesh node.
        path: full source route (node list, ``path[0] == src_node``).
        num_flits: flits including head and tail.
        created_cycle: cycle the packet was handed to the NI.
        injected_cycle: cycle the head flit entered the network (set by NI).
        delivered_cycle: cycle the tail flit left the network (set by sink).
        measured: whether this packet counts toward latency statistics.
        vc: virtual channel the packet rides end to end (assigned by the
            injecting NI; always 0 on the plain wormhole router).
    """

    packet_id: int
    commodity_index: int
    src_node: int
    dst_node: int
    path: list[int]
    num_flits: int
    created_cycle: int
    injected_cycle: int | None = None
    delivered_cycle: int | None = None
    measured: bool = True
    vc: int = 0

    @property
    def latency(self) -> int:
        """Creation-to-delivery latency in cycles (queueing included)."""
        if self.delivered_cycle is None:
            raise SimulationError(f"packet {self.packet_id} not delivered yet")
        return self.delivered_cycle - self.created_cycle

    @property
    def network_latency(self) -> int:
        """Injection-to-delivery latency (excludes NI queueing)."""
        if self.delivered_cycle is None or self.injected_cycle is None:
            raise SimulationError(f"packet {self.packet_id} still in flight")
        return self.delivered_cycle - self.injected_cycle


@dataclass(slots=True)
class Flit:
    """One flit of a packet; ``sequence`` is its place in the train.

    Never mutated once made, but not ``frozen``: a frozen dataclass pays
    an ``object.__setattr__`` per field, and every packet makes a train.
    """

    packet: Packet = field(repr=False)
    kind: FlitKind
    sequence: int

    @property
    def is_head(self) -> bool:
        return self.kind is FlitKind.HEAD

    def __repr__(self) -> str:
        return (
            f"Flit(p{self.packet.packet_id}#{self.sequence} {self.kind.value} "
            f"{self.packet.src_node}->{self.packet.dst_node})"
        )

