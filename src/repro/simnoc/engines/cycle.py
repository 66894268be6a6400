"""The cycle-accurate engine: a per-cycle sweep over the active components.

Per cycle: traffic sources create packets (handed to their NI), NIs inject
one flit each into their router's local port, then every router advances its
output ports (arbitration, wormhole forwarding, link serialization, credit
flow control).  This is the bit-exact reference every other engine is
property-tested against.

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
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.simnoc.engines.base import register_engine
from repro.simnoc.router import LOCAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator

#: Cycles without any flit movement (while flits are in flight) that count
#: as a deadlock.
DEADLOCK_WINDOW = 50_000


@register_engine("cycle")
class CycleEngine:
    """Cycle-accurate time over the components that have pending work."""

    name = "cycle"

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
        config = sim.config
        measure_start = config.warmup_cycles
        measure_end = config.warmup_cycles + config.measure_cycles
        total_cycles = config.total_cycles
        last_progress = 0

        trace = sim.trace
        routers = network.routers
        interfaces = network.interfaces
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
                    sim.all_packets.append(packet)
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
                and network.total_buffered_flits() > 0
            ):
                raise SimulationError(
                    f"deadlock: no flit moved since cycle {last_progress} "
                    f"with {network.total_buffered_flits()} flits buffered"
                )
            cycle += 1
