"""Where a finished run's deliveries are, whichever engine ran it.

The compiled kernel leaves a :class:`~repro.simnoc.stats.PacketLog` on the
simulator and no packet objects; every other engine leaves its packets in
the NIs' ``delivered_packets``.  Tests that look at deliveries read both
through :func:`deliveries`.
"""

from __future__ import annotations

import numpy as np


def deliveries(sim) -> list[tuple[int, int, int, int, int]]:
    """``(node, packet_id, commodity, created, delivered)`` per delivered
    packet: NIs in node order, delivery order within one."""
    log = sim.packet_log
    if log is None:
        return [
            (node, p.packet_id, p.commodity_index, p.created_cycle, p.delivered_cycle)
            for node, ni in sim.network.interfaces.items()
            for p in ni.delivered_packets
        ]
    order = np.argsort(log.dlv_node, kind="stable")
    slots = log.dlv_slot[order]
    columns = (
        log.dlv_node[order],
        slots + log.first_id,
        log.commodity[slots],
        log.created[slots],
        log.delivered[slots],
    )
    return list(zip(*(column.tolist() for column in columns)))
