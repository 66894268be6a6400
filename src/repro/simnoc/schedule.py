"""The injection schedule: every traffic source replayed once, in bulk.

Traffic sources are open-loop — a source's packets depend only on the
cycle and its own RNG — so the flattened engines need not poll them from an
event heap as the ``cycle`` engine does.  :func:`build_schedule`
replays each source on its own (``schedule(until)``, see
:class:`~repro.simnoc.models.TrafficSource`, else :func:`_poll`), merges the
streams by one stable sort on ``(cycle, source index)`` — the heap's pop
order — and routes all packets with array operations.  The result equals
what the polling engines register (``tests/simnoc/test_schedule.py``).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import SimulationError
from repro.routing.dimension_ordered import xy_paths
from repro.simnoc.config import LOCAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator


class InjectionSchedule(NamedTuple):
    """One run's packets in id (= creation) order, as parallel columns.

    Packet ``k`` (id ``first_id + k``) of flow ``commodity[k]`` is created
    at ``cycle[k]`` at node ``src[k]`` for ``dst[k]`` with ``flits[k]``
    flits on lane ``vc[k]``, counted in the statistics iff ``measured[k]``;
    hop ``h`` of its path stands at node ``path_nodes[route_off[k] + h]``
    and leaves through flat output port ``route_val[route_off[k] + h]``.
    """

    first_id: int
    cycle: np.ndarray
    commodity: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    vc: np.ndarray
    flits: np.ndarray
    measured: np.ndarray
    route_off: np.ndarray
    route_val: np.ndarray
    path_nodes: np.ndarray


def _batch_method(source):
    """``source.schedule``, unless ``packets_for_cycle`` is more derived (a
    subclass overriding only that changed what ``schedule`` would replay)."""
    for klass in type(source).__mro__:
        if "schedule" in vars(klass):
            return source.schedule
        if "packets_for_cycle" in vars(klass):
            break
    return None


def _poll(source, until: int) -> tuple:
    """The polling adapter: a source's columns from ``packets_for_cycle``."""
    cycles, packets = [], []
    cycle = source.next_event_cycle
    while cycle < until:
        created = source.packets_for_cycle(cycle, int)  # ids come from the merge
        packets.extend(created)
        cycles.extend([cycle] * len(created))
        cycle = source.next_event_cycle
    fields = ("commodity_index", "src_node", "dst_node", "num_flits", "path")
    return (cycles, *([getattr(p, name) for p in packets] for name in fields))


def _resolve_routes(out_specs, path_off, nodes, first_id: int) -> np.ndarray:
    """Every hop's flat output port: a gather through ``(node, direction)``.

    A direction is ``to_key - node`` (ejection is one more).  A fabric uses
    a handful, so numbered densely they make the table ``nodes x directions``
    and a hop one indexed load; the last column stays empty, for a hop in
    a direction no output has.
    """
    spec = np.array(out_specs, dtype=np.int64).reshape(-1, 2)
    owner, to_key = spec[:, 0], spec[:, 1]
    size = max(int(owner.max(initial=-1)), int(nodes.max(initial=-1))) + 1
    eject = 2 * size
    leaving = np.where(to_key == LOCAL, eject, to_key - owner + size)
    used = np.zeros(eject + 1, dtype=bool)
    used[leaving] = True
    width = int(used.sum()) + 1
    code = np.where(used, np.cumsum(used) - 1, width - 1)
    table = np.full(size * width, -1)
    table[owner * width + code[leaving]] = np.arange(len(spec))
    direction = np.empty_like(nodes)
    direction[:-1] = nodes[1:] - nodes[:-1] + size
    direction[path_off[1:] - 1] = eject
    route = table[nodes * width + code[direction]]
    if route.min(initial=0) < 0:
        hop = int((route < 0).argmax())
        toward = "LOCAL" if direction[hop] == eject else nodes[hop + 1]
        packet_id = first_id + int(np.searchsorted(path_off, hop, "right")) - 1
        raise SimulationError(
            f"node {nodes[hop]} has no output toward {toward} (packet {packet_id})"
        )
    return route


def build_schedule(sim: "Simulator", vc_mode: bool, out_specs) -> InjectionSchedule:
    """Consume ``sim``'s traffic sources; return every packet, as columns.

    ``out_specs`` lists the output ports as ``(node, to_key)`` in flat-index
    order.  Sources end where polling to ``total_cycles`` leaves them and the
    packet-id counter advances; no ``Packet`` is built.  Raises
    ``SimulationError`` when a path asks a node for an output it lacks.
    """
    network = sim.network
    config = network.config
    # Per source, per-packet columns (source index, cycle, commodity, src,
    # dst, flits, path); explicit paths first, the XY-routed rest one block.
    routed, unrouted = [], []
    for index, source in enumerate(network.sources):
        batch = _batch_method(source)
        if batch is None:
            columns = _poll(source, config.total_cycles)
        else:
            cycles, commodities, dsts, paths = batch(config.total_cycles)
            srcs = [source.src_node] * len(cycles)
            flits = [config.flits_per_packet] * len(cycles)
            columns = (cycles, commodities, srcs, dsts, flits, paths)
        group = unrouted if columns[5] is None else routed
        group.append(([index] * len(columns[0]), *columns))
    index, cycle, commodity, src, dst, flits = (
        np.fromiter(chain.from_iterable(g[k] for g in routed + unrouted), np.int64)
        for k in range(6)
    )
    paths = list(chain.from_iterable(g[6] for g in routed))
    xy_off, xy_nodes = xy_paths(network.topology, src[len(paths):], dst[len(paths):])
    lengths = np.concatenate([np.fromiter(map(len, paths), np.int64), np.diff(xy_off)])
    nodes = np.concatenate(
        [np.fromiter(chain.from_iterable(paths), np.int64), xy_nodes]
    )

    # The merge: the polling engines' heap pops (cycle, source index) in
    # this order, and the sort is stable within a source.
    order = np.lexsort((index, cycle))
    cycle, commodity, src, dst, flits = (
        column[order] for column in (cycle, commodity, src, dst, flits)
    )
    starts = (np.cumsum(lengths) - lengths)[order]
    lengths = lengths[order]
    path_off = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(lengths, out=path_off[1:])
    nodes = nodes[np.repeat(starts - path_off[:-1], lengths) + np.arange(path_off[-1])]

    first_id = sim.next_packet_id(len(order))
    route_val = _resolve_routes(out_specs, path_off, nodes, first_id)
    vc = commodity % (config.num_vcs if vc_mode else 1)
    measured = (cycle >= config.warmup_cycles) & (
        cycle < config.warmup_cycles + config.measure_cycles
    )
    return InjectionSchedule(
        first_id, cycle, commodity, src, dst, vc, flits, measured, path_off,
        route_val, nodes,
    )  # fmt: skip
