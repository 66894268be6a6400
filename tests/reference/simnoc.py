"""Seed oracle for the simulator: the full-scan cycle loop.

Every source, NI and router is visited every cycle, and a router step
refills and advances every output port (every lane, on the VC router)
whether or not anything requests it.  The ``cycle`` engine skips idle
components and unrequested ports; it must not move a single flit
differently.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW
from repro.simnoc.router import LOCAL


def every_port_step(router, cycle: int, deliver) -> int:
    """The seed's ``Router.step`` / ``VCRouter.step``: no request pre-pass."""
    # VCRouter._advance_port takes the lanes to allocate; Router's has none.
    lanes = (range(router.num_vcs),) if hasattr(router, "num_vcs") else ()
    moved = 0
    for out_key in router.output_order:
        port = router.outputs[out_key]
        port.refill_to(cycle)
        moved += router._advance_port(port, *lanes, cycle, deliver)
    return moved


def seed_cycle_loop(sim, step=every_port_step):
    """Run ``sim`` on the seed's loop and return its report.

    ``step(router, cycle, deliver)`` advances one router; passing the
    production ``step`` method isolates the router's port skipping from the
    engine's component skipping.
    """
    network = sim.network
    config = sim.config
    trace = sim.trace
    measure_start = config.warmup_cycles
    measure_end = config.warmup_cycles + config.measure_cycles
    last_progress = 0

    def deliver(from_node: int, to_key: int, flit, cycle: int) -> None:
        if trace is not None:
            trace.record(from_node, to_key, flit, cycle)
        if to_key == LOCAL:
            network.interfaces[from_node].eject(flit, cycle)
        else:
            network.routers[to_key].inputs[from_node].push(flit, cycle)

    for cycle in range(config.total_cycles):
        moved = 0
        for source in network.sources:
            for packet in source.packets_for_cycle(cycle, sim.next_packet_id):
                packet.measured = measure_start <= cycle < measure_end
                sim.all_packets.append(packet)
                network.interfaces[packet.src_node].offer_packet(packet)
        for node in sorted(network.interfaces):
            moved += network.interfaces[node].inject(cycle, LOCAL)
        for node in sorted(network.routers):
            moved += step(network.routers[node], cycle, deliver)

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
    return sim._build_report()
