"""Where a finished run's deliveries are, whichever engine ran it.

Every engine — the object-model oracle under ``tests/reference``
included — leaves a :class:`~repro.simnoc.stats.PacketLog` on the
simulator; tests that look at deliveries read it through
:func:`deliveries`.
"""

from __future__ import annotations

import numpy as np


def deliveries(sim) -> list[tuple[int, int, int, int, int]]:
    """``(node, packet_id, commodity, created, delivered)`` per delivered
    packet: NIs in node order, delivery order within one."""
    log = sim.packet_log
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
