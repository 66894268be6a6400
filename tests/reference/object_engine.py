"""The object-model simulator: a per-cycle sweep over router and NI objects.

Per cycle: traffic sources create packets (handed to their NI), NIs inject
one flit each into their router's local port, then every router advances its
output ports (arbitration, wormhole forwarding, link serialization, credit
flow control).  This was the ``cycle`` engine; ``cycle`` is now a name of
the flattened ``vector`` engine, and this loop is the oracle every engine
name is property-tested against.  Tests file it under a test-only engine
name (``tests/conftest.py``'s ``object_engine`` fixture).  Like the
flattened engine it leaves columns on the simulator — ``sim.packet_log``
and ``sim.carried`` — so the one report path reads both.

The loop skips idle routers and NIs and fast-forwards fully idle stretches,
provably without changing a single flit movement: the seed's scan of every
source, NI and router on every cycle is kept as ``tests/reference``'s
``seed_cycle_loop``, and the property suite holds the two to identical
reports, flit traces and deadlock messages.

A watchdog aborts runs where no flit moves for a long stretch while traffic
is in flight (wormhole + arbitrary multi-path source routing is not
provably deadlock-free; at the evaluated loads deadlock does not occur, but
silent hangs must not masquerade as results).
"""

from __future__ import annotations

import bisect
import heapq
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.simnoc.config import DEADLOCK_WINDOW, LOCAL
from repro.simnoc.stats import PacketLog
from tests.reference.ni import NetworkInterface
from tests.reference.router import Router, build_wormhole_router
from tests.reference.vc_router import VCRouter, build_vc_router

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.network import Fabric, Network
    from repro.simnoc.packet import Packet
    from repro.simnoc.simulator import Simulator


def build_routers(fabric: "Fabric") -> dict[int, Router | VCRouter]:
    """One router of the wired model per node, credit loops connected."""
    build = build_vc_router if fabric.model == "wormhole-vc" else build_wormhole_router
    out_index = fabric.out_index
    routers: dict[int, Router | VCRouter] = {}
    for node in fabric.nodes:
        keys = [LOCAL, *fabric.topology.neighbors(node)]
        ports = [out_index[node, key] for key in keys]
        specs = {key: (fabric.rates[p], fabric.credits[p]) for key, p in zip(keys, ports)}
        routers[node] = build(node, keys, specs, fabric.config)
    # Each input port knows the output port feeding it.
    for node, router in routers.items():
        for neighbor in fabric.topology.neighbors(node):
            router.inputs[neighbor].feeder = routers[neighbor].outputs[node]
    return routers


class ObjectNetwork:
    """The router and network-interface objects of one built network."""

    def __init__(self, network: "Network") -> None:
        self.routers = build_routers(network.fabric)
        num_vcs = network.config.num_vcs
        self.interfaces = {
            node: NetworkInterface(node, self.routers[node], num_vcs=num_vcs)
            for node in network.fabric.nodes
        }

    def total_buffered_flits(self) -> int:
        return sum(router.buffered_flits() for router in self.routers.values())


_OBJECTS: "weakref.WeakKeyDictionary[Network, ObjectNetwork]" = weakref.WeakKeyDictionary()


def objects(network: "Network") -> ObjectNetwork:
    """``network``'s router and NI objects, built on first use."""
    if network not in _OBJECTS:
        _OBJECTS[network] = ObjectNetwork(network)
    return _OBJECTS[network]


def write_columns(sim: "Simulator", packets: "list[Packet]") -> None:
    """Leave the run's packets and port counters on ``sim`` as the flattened
    engine does: a ``PacketLog`` (slot ``k`` is ``packets[k]``, deliveries in
    node order, each node's in delivery order) and ``carried`` per output in
    flat port order."""
    model = objects(sim.network)
    slot = {packet.packet_id: k for k, packet in enumerate(packets)}

    def column(values, dtype=np.int64):
        return np.fromiter(values, dtype, len(packets))

    def cycle_or_never(name):
        return column(-1 if getattr(p, name) is None else getattr(p, name) for p in packets)

    delivered = [
        (node, slot[packet.packet_id])
        for node, interface in model.interfaces.items()
        for packet in interface.delivered_packets
    ]
    sim.packet_log = PacketLog(
        first_id=packets[0].packet_id if packets else 1,
        commodity=column(p.commodity_index for p in packets),
        measured=column((p.measured for p in packets), bool),
        created=column(p.created_cycle for p in packets),
        injected=cycle_or_never("injected_cycle"),
        delivered=cycle_or_never("delivered_cycle"),
        dlv_node=np.array([node for node, _ in delivered], np.int64),
        dlv_slot=np.array([k for _, k in delivered], np.int64),
    )
    sim.carried = [
        model.routers[node].outputs[key].flits_carried
        for node, key in sim.network.fabric.outputs
    ]


#: The test-only engine name the oracle is filed under while a test runs it.
OBJECT_ENGINE = "object"


class ObjectEngine:
    """Cycle-accurate time over the components that have pending work."""

    name = OBJECT_ENGINE

    def run(self, sim: "Simulator") -> None:
        """Advance ``sim`` cycle by cycle, touching only active components.

        Equivalence with the seed's scan of every source, NI and router on
        every cycle (``tests/reference``; the invariants the property tests
        pin down):

        * an NI with an empty injection queue and a router with no buffered
          flits and no allocated wormhole are no-ops in the full scan except
          for token refills, which ``refill_bucket_to`` replays
          bit-exactly on re-activation;
        * routers are stepped in ascending node id; a flit delivered
          downstream mid-cycle activates its receiver, inserting it into the
          current sweep iff its id is still ahead (the full scan would have
          stepped it later this same cycle) — receivers behind the sweep
          point were stepped as no-ops already and wake next cycle;
        * sources sit in a heap keyed by their next firing cycle, so a
          completely idle network (no backlog, no flits in flight) jumps
          straight to the next injection without touching anything.
        """
        network = sim.network
        model = objects(network)
        config = sim.config
        measure_start = config.warmup_cycles
        measure_end = config.warmup_cycles + config.measure_cycles
        total_cycles = config.total_cycles
        last_progress = 0

        trace = sim.trace
        routers = model.routers
        interfaces = model.interfaces
        created: list = []
        # (node, from_key) -> input port, read from the ``inputs`` dicts.
        in_ports = {
            (node, from_key): port
            for node, router in routers.items()
            for from_key, port in router.inputs.items()
        }

        active_routers: set[int] = set()
        active_nis: set[int] = set()

        # Per-cycle router sweep (ascending id) and the position stepping,
        # shared with the deliver closure.
        sweep: list[int] = []
        pos = 0

        def deliver(from_node: int, to_key: int, flit, cycle: int) -> None:
            if trace is not None:
                trace.record(from_node, to_key, flit, cycle)
            if to_key == LOCAL:
                interfaces[from_node].eject(flit, cycle)
                return
            in_ports[to_key, from_node].push(flit, cycle)
            # Every active router is in the sweep; a sleeping one ahead of
            # the stepping position joins it, one behind wakes next cycle.
            if to_key not in active_routers:
                active_routers.add(to_key)
                if to_key > sweep[pos]:
                    bisect.insort(sweep, to_key, lo=pos + 1)

        event_heap = [
            (source.next_event_cycle, index)
            for index, source in enumerate(network.sources)
        ]
        heapq.heapify(event_heap)

        cycle = 0
        while cycle < total_cycles:
            if not active_routers and not active_nis:
                # Fully idle: no flit buffered or in flight anywhere, so
                # nothing can happen before the next source fires.
                if not event_heap or event_heap[0][0] >= total_cycles:
                    break
                if event_heap[0][0] > cycle:
                    cycle = event_heap[0][0]

            while event_heap and event_heap[0][0] <= cycle:
                _, index = heapq.heappop(event_heap)
                source = network.sources[index]
                for packet in source.packets_for_cycle(cycle, sim.next_packet_id):
                    packet.measured = measure_start <= cycle < measure_end
                    created.append(packet)
                    interfaces[packet.src_node].offer_packet(packet)
                    active_nis.add(packet.src_node)
                heapq.heappush(event_heap, (source.next_event_cycle, index))

            moved = 0
            for node in sorted(active_nis):
                interface = interfaces[node]
                injected = interface.inject(cycle, LOCAL)
                if injected:
                    moved += injected
                    active_routers.add(node)
                if not interface.backlog_flits:
                    active_nis.discard(node)

            if active_routers:
                sweep = sorted(active_routers)
                pos = 0
                while pos < len(sweep):
                    moved += routers[sweep[pos]].step(cycle, deliver)
                    pos += 1
                for node in sweep:
                    if routers[node].is_idle():
                        active_routers.discard(node)

            if moved:
                last_progress = cycle
            elif (
                cycle - last_progress > DEADLOCK_WINDOW
                and model.total_buffered_flits() > 0
            ):
                raise SimulationError(
                    f"deadlock: no flit moved since cycle {last_progress} "
                    f"with {model.total_buffered_flits()} flits buffered"
                )
            cycle += 1
        write_columns(sim, created)
