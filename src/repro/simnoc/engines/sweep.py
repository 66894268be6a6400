"""The one interpreted sweep: flattened state plus the per-cycle loops.

This module is what runs when no compiled kernel does.  It holds

* :class:`_FlatState` — the fabric's wiring
  (:class:`~repro.simnoc.network.Fabric`; no router object is read) laid
  out as preallocated structure-of-arrays state (also the wiring flatten
  under :class:`~repro.simnoc.engines.flat_kernel.KernelProgram`):

  * every input FIFO lane and output port has the fabric's flat index;
    wiring (downstream input, upstream feeder, ejection) becomes int arrays;
  * token buckets live in ``numpy`` float64 arrays — the per-cycle refill
    ``t = min(t + rate, cap)`` of *all* ports is two in-place ufunc calls
    (idle gaps replay the same update per skipped cycle, stopping once
    every bucket saturates at its cap, a fixpoint of the update —
    bit-identical to the object model's ``refill_bucket_to`` in
    ``tests/reference/router.py``);
  * head-of-line state (enter cycle, packet slot, sequence, hop position)
    is mirrored into flat arrays maintained on push/pop, so the visibility
    probe reads two ints instead of unpacking a deque head;
  * credits, wormhole owners, round-robin pointers and per-port flit
    counters are flat Python lists indexed by those same port ids;
  * each packet is registered once with its *resolved route*, a per-hop
    list of flat output-port indices (resolved by the injection schedule),
    so the object router's per-probe ``path.index`` search becomes one
    indexed load;

* :func:`sweep_plain` / :func:`sweep_vc` — the per-cycle advance, one per
  router model, over every node of the fabric;
* :func:`run_in_process` — the entry point: flatten, replay the injection
  schedule (:func:`replay_sources`) through the model's loop, and leave a
  :class:`~repro.simnoc.stats.PacketLog` and a per-port ``carried`` column
  on the simulator, as the compiled rung does.

The ``vector`` engine calls :func:`run_in_process` when no compiled kernel
runs (``cycle``, ``event`` and ``sharded``, its other names, reach it the
same way).
A fully idle network fast-forwards to the next scheduled injection.

Wormhole arbitration is irreducibly sequential (router order within a
cycle is observable through same-cycle credit returns), so the movement
phase replays the object model's exact sweep discipline — ascending node
id, mid-cycle insertion of downstream receivers, round-robin pointers
updated only on successful arbitration — with zero per-flit method calls.

One deliberate relaxation keeps the request bookkeeping cheap: after a
port moves flits, the object router recomputes the full request set; the
loops only re-examine the input lanes that were popped.  The maintained
set is therefore a *superset* of the true one (entries for already-consumed
heads linger), which is harmless by construction — the set only gates
whether an ownerless port *attempts* arbitration, and an attempt with no
actual requesting head fails without mutating any state (round-robin
pointers move on success only).

Equivalence contract (property-tested in ``tests/properties``): identical
reports *and* identical flit traces to the object-model oracle
(``tests/reference``), for both router models, below, at and above
saturation.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from itertools import starmap
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.simnoc.config import DEADLOCK_WINDOW, LOCAL
from repro.simnoc.schedule import build_schedule
from repro.simnoc.stats import PacketLog
from repro.simnoc.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator

#: Head-mirror sentinel for an empty queue (no enter cycle can reach it).
_EMPTY = 1 << 60


class _FlatState:
    """The flattened network: every dynamic quantity lives in a flat array.

    Port indexing is the fabric's (:class:`~repro.simnoc.network.Fabric`):
    input port ``i`` of lane ``vc`` is ``queues[i * L + vc]`` (``L == 1``
    for the plain wormhole router); output port ``p``'s per-lane state is
    at ``p * L + vc``.  Node-keyed side tables (``node_ins``,
    ``node_outs``, counters) use the original node ids, which keeps the
    engine independent of how the topology numbers its mesh.
    """

    def __init__(self, sim: "Simulator", vc_mode: bool) -> None:
        fabric = sim.network.fabric
        self.num_vcs = L = sim.config.num_vcs if vc_mode else 1
        in_specs = self.in_specs = fabric.inputs
        out_specs = self.out_specs = fabric.outputs
        in_index = {spec: i for i, spec in enumerate(in_specs)}
        out_index = fabric.out_index
        num_in = len(in_specs)
        num_out = len(out_specs)

        # --- input side ---------------------------------------------------
        self.queues: list = [deque() for _ in range(num_in * L)]
        #: Head-of-line mirrors, indexed like ``queues``; kept in sync on
        #: every pop and every push into an empty queue.
        self.head_enter: list[int] = [_EMPTY] * (num_in * L)
        self.head_slot: list[int] = [-1] * (num_in * L)
        self.head_seq: list[int] = [-1] * (num_in * L)
        self.head_pos: list[int] = [0] * (num_in * L)
        self.in_cap: list[int] = fabric.in_cap
        self.in_feeder: list[int] = [
            -1 if key == LOCAL else out_index[key, node] for node, key in in_specs
        ]

        # --- output side --------------------------------------------------
        self.out_rates = np.array(fabric.rates, dtype=np.float64)
        self.out_caps = np.maximum(1.0, self.out_rates) + 1.0
        self.out_tokens = np.zeros(num_out, dtype=np.float64)
        self.credits: list[float] = [c for c in fabric.credits for _ in range(L)]
        self.owner: list[int] = [-1] * (num_out * L)
        self.owner_pkt: list[int] = [-1] * (num_out * L)
        self.rr_in: list[int] = [0] * (num_out * L)
        self.vc_rr: list[int] = [0] * num_out
        self.port_owned: list[int] = [0] * num_out
        self.carried: list[int] = [0] * num_out
        self.out_dest_in: list[int] = [
            -1 if key == LOCAL else in_index[key, node] for node, key in out_specs
        ]
        self.out_dest_node: list[int] = [
            node if key == LOCAL else key for node, key in out_specs
        ]
        self.out_to_key: list[int] = [key for _, key in out_specs]

        # --- per-node views (lists indexed by node id) --------------------
        size = max(fabric.nodes) + 1
        self.node_ins: list = [[] for _ in range(size)]
        self.node_outs: list = [[] for _ in range(size)]
        self.local_in: list[int] = [-1] * size
        for i, (node, key) in enumerate(in_specs):
            self.node_ins[node].append(i)
            if key == LOCAL:
                self.local_in[node] = i
        for p, (node, _key) in enumerate(out_specs):
            self.node_outs[node].append(p)
        self.node_buf: list[int] = [0] * size
        self.node_owned: list[int] = [0] * size

        # --- NI + packet tables -------------------------------------------
        self.ni_queue: list = [deque() for _ in range(size)]
        self.pkt_outs: list[list[int]] = []
        self.pkt_last: list[int] = []
        self.pkt_vc: list[int] = []


def replay_sources(schedule) -> list:
    """A run's :class:`~repro.simnoc.schedule.InjectionSchedule` as packet specs.

    One ``(cycle, (packet_id, vc, src_node, route, num_flits))`` spec per
    packet, in creation order (the order that numbers the loops' packet
    slots), ``route`` being the path as flat output-port indices.
    """
    routes = schedule.route_val.tolist()
    starts, ends = schedule.route_off[:-1], schedule.route_off[1:]
    columns = (schedule.cycle, schedule.vc, schedule.src, starts, ends, schedule.flits)
    return [
        (cycle, (pid, vc, src, routes[a:b], flits))
        for pid, (cycle, vc, src, a, b, flits) in enumerate(
            zip(*(column.tolist() for column in columns)), schedule.first_id
        )
    ]


def sweep_plain(state: _FlatState, config, specs: list, trace_cap: int) -> tuple:
    """The plain-wormhole advance loop over every node.

    This is the object model's active-set sweep on the flat state: packets
    register from ``specs`` (:func:`replay_sources`; registration order is
    creation order, which numbers the packet slots) and the movement phase
    sweeps the active routers in ascending node id.

    Returns ``(injected, delivered, trace_events, trace_attempts, stall)``
    for :func:`run_in_process`: first-flit injection cycles by packet slot,
    per-node ``(slot, cycle)`` deliveries in ejection order, the trace
    stream bounded by ``trace_cap`` with the count of events it wanted, and
    ``(last_progress, buffered)`` when the deadlock watchdog stopped the
    run (``None`` otherwise).
    """
    delay = config.router_delay
    total_cycles = config.total_cycles

    queues = state.queues
    head_enter = state.head_enter
    head_slot = state.head_slot
    head_seq = state.head_seq
    head_pos = state.head_pos
    in_cap = state.in_cap
    feeder = state.in_feeder
    tokens = state.out_tokens
    rates = state.out_rates
    caps = state.out_caps
    credits = state.credits
    owner = state.owner
    owner_pkt = state.owner_pkt
    rr_in = state.rr_in
    carried = state.carried
    dest_in = state.out_dest_in
    dest_node = state.out_dest_node
    out_to_key = state.out_to_key
    node_ins = state.node_ins
    node_outs = state.node_outs
    local_in = state.local_in
    node_buf = state.node_buf
    node_owned = state.node_owned
    ni_queue = state.ni_queue
    pkt_outs = state.pkt_outs
    pkt_last = state.pkt_last

    pkt_ids: list[int] = []
    injected_by_slot: dict[int, int] = {}
    delivered: list = [[] for _ in range(len(node_ins))]
    trace_events: list[tuple] = []
    trace_attempts = 0
    stall = None

    np_add = np.add
    np_minimum = np.minimum

    active_routers: set[int] = set()
    active_nis: set[int] = set()
    buffered_total = 0
    last_progress = 0
    last_refill = -1

    inj_pending = deque(specs)

    cycle = 0
    while cycle < total_cycles:
        # (0) Fully idle: nothing can happen before the next scheduled
        #     injection (token refill catches up by replay).
        if not active_routers and not active_nis:
            if not inj_pending:
                break
            cycle = inj_pending[0][0]

        # (1) Packet registrations due this cycle, in creation order.
        while inj_pending and inj_pending[0][0] == cycle:
            _, (pid, vc, src, route, num_flits) = inj_pending.popleft()
            slot = len(pkt_ids)
            pkt_ids.append(pid)
            pkt_outs.append(route)
            pkt_last.append(num_flits - 1)
            state.pkt_vc.append(vc)
            ni_queue[src].extend((slot, seq) for seq in range(num_flits))
            active_nis.add(src)

        # (2) NI phase — node-local state only, so running every node up
        #     front matches the object model's NI pass.
        moved = 0
        if active_nis:
            drained = None
            for node in sorted(active_nis):
                backlog = ni_queue[node]
                if backlog:
                    li = local_in[node]
                    in_queue = queues[li]
                    if len(in_queue) < in_cap[li]:
                        slot, seq = backlog.popleft()
                        if seq == 0 and slot not in injected_by_slot:
                            injected_by_slot[slot] = cycle
                        if not in_queue:
                            head_enter[li] = cycle
                            head_slot[li] = slot
                            head_seq[li] = seq
                            head_pos[li] = 0
                        in_queue.append((cycle, slot, seq, 0))
                        node_buf[node] += 1
                        buffered_total += 1
                        moved += 1
                        active_routers.add(node)
                if not backlog:
                    if drained is None:
                        drained = [node]
                    else:
                        drained.append(node)
            if drained:
                for node in drained:
                    active_nis.discard(node)

        # (3) Token refill: value-exact regardless of which cycles ran it
        #     (catch-up replay over the skipped cycles).
        if active_routers:
            pending_cycles = cycle - last_refill
            last_refill = cycle
            if pending_cycles == 1:
                np_add(tokens, rates, out=tokens)
                np_minimum(tokens, caps, out=tokens)
            else:
                while pending_cycles > 0:
                    np_add(tokens, rates, out=tokens)
                    np_minimum(tokens, caps, out=tokens)
                    pending_cycles -= 1
                    if pending_cycles and (tokens == caps).all():
                        break

        limit = cycle - delay

        # (4) Sweep the active routers in ascending node id.
        sweep = sorted(active_routers)
        swept = set(sweep)
        sweep_len = len(sweep)
        spos = 0
        while spos < sweep_len:
            node = sweep[spos]
            ins = node_ins[node]

            requested = None
            for i in ins:
                if head_enter[i] <= limit and head_seq[i] == 0:
                    out = pkt_outs[head_slot[i]][head_pos[i]]
                    if requested is None:
                        requested = {out}
                    else:
                        requested.add(out)
            if requested is None and node_owned[node] == 0:
                spos += 1
                continue
            nin = len(ins)

            for p in node_outs[node]:
                ow = owner[p]
                if ow < 0:
                    if requested is None or p not in requested:
                        continue
                    start = rr_in[p]
                    for offset in range(nin):
                        j = start + offset
                        if j >= nin:
                            j -= nin
                        i = ins[j]
                        if (
                            head_enter[i] <= limit
                            and head_seq[i] == 0
                            and pkt_outs[head_slot[i]][head_pos[i]] == p
                        ):
                            rr_in[p] = j + 1 if j + 1 < nin else 0
                            owner[p] = i
                            owner_pkt[p] = head_slot[i]
                            node_owned[node] += 1
                            ow = i
                            break
                    if ow < 0:
                        continue

                my_pkt = owner_pkt[p]
                if (
                    credits[p] < 1.0
                    or head_enter[ow] > limit
                    or head_slot[ow] != my_pkt
                ):
                    continue
                tk = float(tokens[p])
                if tk < 1.0:
                    continue
                advanced = 0
                my_queue = queues[ow]
                my_last = pkt_last[my_pkt]
                fdr = feeder[ow]
                di = dest_in[p]
                dn = dest_node[p]
                while (
                    tk >= 1.0
                    and credits[p] >= 1.0
                    and head_enter[ow] <= limit
                    and head_slot[ow] == my_pkt
                ):
                    seq = head_seq[ow]
                    pos = head_pos[ow]
                    my_queue.popleft()
                    if my_queue:
                        (
                            head_enter[ow],
                            head_slot[ow],
                            head_seq[ow],
                            head_pos[ow],
                        ) = my_queue[0]
                    else:
                        head_enter[ow] = _EMPTY
                    node_buf[node] -= 1
                    buffered_total -= 1
                    if fdr >= 0:
                        credits[fdr] += 1.0
                    tk -= 1.0
                    credits[p] -= 1.0
                    carried[p] += 1
                    advanced += 1
                    if trace_cap:
                        if len(trace_events) < trace_cap:
                            trace_events.append(
                                (
                                    cycle,
                                    node,
                                    out_to_key[p],
                                    pkt_ids[my_pkt],
                                    seq,
                                )
                            )
                        trace_attempts += 1
                    if di < 0:
                        if seq == my_last:
                            delivered[node].append((my_pkt, cycle))
                            owner[p] = -1
                            owner_pkt[p] = -1
                            node_owned[node] -= 1
                            break
                    else:
                        down_queue = queues[di]
                        if not down_queue:
                            head_enter[di] = cycle
                            head_slot[di] = my_pkt
                            head_seq[di] = seq
                            head_pos[di] = pos + 1
                        down_queue.append((cycle, my_pkt, seq, pos + 1))
                        node_buf[dn] += 1
                        buffered_total += 1
                        active_routers.add(dn)
                        if dn > node and dn not in swept:
                            insort(sweep, dn, spos + 1)
                            swept.add(dn)
                            sweep_len += 1
                        if seq == my_last:
                            owner[p] = -1
                            owner_pkt[p] = -1
                            node_owned[node] -= 1
                            break
                if advanced:
                    tokens[p] = tk
                    moved += advanced
                    if head_enter[ow] <= limit and head_seq[ow] == 0:
                        out = pkt_outs[head_slot[ow]][head_pos[ow]]
                        if requested is None:
                            requested = {out}
                        else:
                            requested.add(out)
            spos += 1

        for node in sweep:
            if node_buf[node] == 0 and node_owned[node] == 0:
                active_routers.discard(node)

        if moved:
            last_progress = cycle
        elif cycle - last_progress > DEADLOCK_WINDOW and buffered_total > 0:
            stall = (last_progress, buffered_total)
            break
        cycle += 1

    return injected_by_slot, delivered, trace_events, trace_attempts, stall


def sweep_vc(state: _FlatState, config, specs: list, trace_cap: int) -> tuple:
    """The VC-wormhole advance loop over every node.

    Same contract as :func:`sweep_plain`, on the ``L``-lanes-per-port
    layout: lane ``vc`` of input ``i`` is ``queues[i * L + vc]`` and of
    output ``p`` is ``p * L + vc``.
    """
    delay = config.router_delay
    total_cycles = config.total_cycles
    L = state.num_vcs

    queues = state.queues
    head_enter = state.head_enter
    head_slot = state.head_slot
    head_seq = state.head_seq
    head_pos = state.head_pos
    in_cap = state.in_cap
    feeder = state.in_feeder
    tokens = state.out_tokens
    rates = state.out_rates
    caps = state.out_caps
    credits = state.credits
    owner = state.owner
    owner_pkt = state.owner_pkt
    rr_in = state.rr_in
    vc_rr = state.vc_rr
    port_owned = state.port_owned
    carried = state.carried
    dest_in = state.out_dest_in
    dest_node = state.out_dest_node
    out_to_key = state.out_to_key
    node_ins = state.node_ins
    node_outs = state.node_outs
    local_in = state.local_in
    node_buf = state.node_buf
    node_owned = state.node_owned
    ni_queue = state.ni_queue
    pkt_outs = state.pkt_outs
    pkt_last = state.pkt_last
    pkt_vc = state.pkt_vc

    pkt_ids: list[int] = []
    injected_by_slot: dict[int, int] = {}
    delivered: list = [[] for _ in range(len(node_ins))]
    trace_events: list[tuple] = []
    trace_attempts = 0
    stall = None

    np_add = np.add
    np_minimum = np.minimum

    active_routers: set[int] = set()
    active_nis: set[int] = set()
    buffered_total = 0
    last_progress = 0
    last_refill = -1

    inj_pending = deque(specs)

    cycle = 0
    while cycle < total_cycles:
        if not active_routers and not active_nis:
            if not inj_pending:
                break
            cycle = inj_pending[0][0]

        while inj_pending and inj_pending[0][0] == cycle:
            _, (pid, vc, src, route, num_flits) = inj_pending.popleft()
            slot = len(pkt_ids)
            pkt_ids.append(pid)
            pkt_outs.append(route)
            pkt_last.append(num_flits - 1)
            pkt_vc.append(vc)
            ni_queue[src].extend((slot, seq) for seq in range(num_flits))
            active_nis.add(src)

        moved = 0
        if active_nis:
            drained = None
            for node in sorted(active_nis):
                backlog = ni_queue[node]
                if backlog:
                    slot, seq = backlog[0]
                    lane = pkt_vc[slot]
                    li = local_in[node]
                    lq = li * L + lane
                    in_queue = queues[lq]
                    if len(in_queue) < in_cap[li]:
                        backlog.popleft()
                        if seq == 0 and slot not in injected_by_slot:
                            injected_by_slot[slot] = cycle
                        if not in_queue:
                            head_enter[lq] = cycle
                            head_slot[lq] = slot
                            head_seq[lq] = seq
                            head_pos[lq] = 0
                        in_queue.append((cycle, slot, seq, 0))
                        node_buf[node] += 1
                        buffered_total += 1
                        moved += 1
                        active_routers.add(node)
                if not backlog:
                    if drained is None:
                        drained = [node]
                    else:
                        drained.append(node)
            if drained:
                for node in drained:
                    active_nis.discard(node)

        if active_routers:
            pending_cycles = cycle - last_refill
            last_refill = cycle
            if pending_cycles == 1:
                np_add(tokens, rates, out=tokens)
                np_minimum(tokens, caps, out=tokens)
            else:
                while pending_cycles > 0:
                    np_add(tokens, rates, out=tokens)
                    np_minimum(tokens, caps, out=tokens)
                    pending_cycles -= 1
                    if pending_cycles and (tokens == caps).all():
                        break

        limit = cycle - delay

        sweep = sorted(active_routers)
        swept = set(sweep)
        sweep_len = len(sweep)
        spos = 0
        while spos < sweep_len:
            node = sweep[spos]
            ins = node_ins[node]

            requested = None
            for i in ins:
                base = i * L
                for vc in range(L):
                    iq = base + vc
                    if head_enter[iq] <= limit and head_seq[iq] == 0:
                        out = pkt_outs[head_slot[iq]][head_pos[iq]]
                        if requested is None:
                            requested = {out: {vc}}
                        elif out in requested:
                            requested[out].add(vc)
                        else:
                            requested[out] = {vc}
            if requested is None and node_owned[node] == 0:
                spos += 1
                continue
            nin = len(ins)

            for p in node_outs[node]:
                wanted = None if requested is None else requested.get(p)
                if wanted is None and port_owned[p] == 0:
                    continue
                base_p = p * L
                if wanted is not None:
                    for vc in sorted(wanted):
                        pl = base_p + vc
                        if owner[pl] >= 0:
                            continue
                        start = rr_in[pl]
                        for offset in range(nin):
                            j = start + offset
                            if j >= nin:
                                j -= nin
                            iq = ins[j] * L + vc
                            if (
                                head_enter[iq] <= limit
                                and head_seq[iq] == 0
                                and pkt_outs[head_slot[iq]][head_pos[iq]]
                                == p
                            ):
                                rr_in[pl] = j + 1 if j + 1 < nin else 0
                                owner[pl] = ins[j]
                                owner_pkt[pl] = head_slot[iq]
                                port_owned[p] += 1
                                node_owned[node] += 1
                                break

                advanced = 0
                popped = None
                di = dest_in[p]
                dn = dest_node[p]
                tk = -1.0
                starved = False
                while not starved:
                    progressed = False
                    start_vc = vc_rr[p]
                    for offset in range(L):
                        vc = start_vc + offset
                        if vc >= L:
                            vc -= L
                        pl = base_p + vc
                        ow = owner[pl]
                        if ow < 0 or credits[pl] < 1.0:
                            continue
                        oq = ow * L + vc
                        my_pkt = owner_pkt[pl]
                        if head_enter[oq] > limit or head_slot[oq] != my_pkt:
                            continue
                        if tk < 0.0:
                            tk = float(tokens[p])
                        if tk < 1.0:
                            starved = True
                            break
                        seq = head_seq[oq]
                        pos = head_pos[oq]
                        queue = queues[oq]
                        queue.popleft()
                        if queue:
                            (
                                head_enter[oq],
                                head_slot[oq],
                                head_seq[oq],
                                head_pos[oq],
                            ) = queue[0]
                        else:
                            head_enter[oq] = _EMPTY
                        if popped is None:
                            popped = {oq}
                        else:
                            popped.add(oq)
                        node_buf[node] -= 1
                        buffered_total -= 1
                        fdr = feeder[ow]
                        if fdr >= 0:
                            credits[fdr * L + vc] += 1.0
                        tk -= 1.0
                        credits[pl] -= 1.0
                        carried[p] += 1
                        advanced += 1
                        if trace_cap:
                            if len(trace_events) < trace_cap:
                                trace_events.append(
                                    (
                                        cycle,
                                        node,
                                        out_to_key[p],
                                        pkt_ids[my_pkt],
                                        seq,
                                    )
                                )
                            trace_attempts += 1
                        if di < 0:
                            if seq == pkt_last[my_pkt]:
                                delivered[node].append((my_pkt, cycle))
                                owner[pl] = -1
                                owner_pkt[pl] = -1
                                port_owned[p] -= 1
                                node_owned[node] -= 1
                        else:
                            dq = di * L + vc
                            down_queue = queues[dq]
                            if not down_queue:
                                head_enter[dq] = cycle
                                head_slot[dq] = my_pkt
                                head_seq[dq] = seq
                                head_pos[dq] = pos + 1
                            down_queue.append((cycle, my_pkt, seq, pos + 1))
                            node_buf[dn] += 1
                            buffered_total += 1
                            active_routers.add(dn)
                            if dn > node and dn not in swept:
                                insort(sweep, dn, spos + 1)
                                swept.add(dn)
                                sweep_len += 1
                            if seq == pkt_last[my_pkt]:
                                owner[pl] = -1
                                owner_pkt[pl] = -1
                                port_owned[p] -= 1
                                node_owned[node] -= 1
                        vc_rr[p] = vc + 1 if vc + 1 < L else 0
                        progressed = True
                        break
                    if not progressed:
                        break
                if advanced:
                    tokens[p] = tk
                    moved += advanced
                    for oq in popped:
                        if head_enter[oq] <= limit and head_seq[oq] == 0:
                            out = pkt_outs[head_slot[oq]][head_pos[oq]]
                            vc = oq % L
                            if requested is None:
                                requested = {out: {vc}}
                            elif out in requested:
                                requested[out].add(vc)
                            else:
                                requested[out] = {vc}
            spos += 1

        for node in sweep:
            if node_buf[node] == 0 and node_owned[node] == 0:
                active_routers.discard(node)

        if moved:
            last_progress = cycle
        elif cycle - last_progress > DEADLOCK_WINDOW and buffered_total > 0:
            stall = (last_progress, buffered_total)
            break
        cycle += 1

    return injected_by_slot, delivered, trace_events, trace_attempts, stall


def deadlock_error(last_progress: int, buffered: int) -> SimulationError:
    """The watchdog's error: no flit moved for ``DEADLOCK_WINDOW`` cycles."""
    return SimulationError(
        f"deadlock: no flit moved since cycle {last_progress} "
        f"with {buffered} flits buffered"
    )


def run_in_process(sim: "Simulator", vc_mode: bool) -> None:
    """Advance ``sim`` with the interpreted sweep, in the calling process.

    Leaves the run's observables on ``sim`` as the compiled rung does: the
    packets as a :class:`~repro.simnoc.stats.PacketLog` over the run's
    schedule (deliveries grouped by node in ascending id, each node's in
    ejection order), the per-port flit counts as ``sim.carried``, and the
    bounded flit trace on the recorder.

    Raises:
        SimulationError: on a stall of ``DEADLOCK_WINDOW`` cycles, once the
            flit trace up to the stall is on the recorder.
    """
    fabric = sim.network.fabric
    schedule = build_schedule(sim, vc_mode, fabric.outputs)
    state = _FlatState(sim, vc_mode=vc_mode)
    sweep = sweep_vc if vc_mode else sweep_plain
    recorder = sim.trace
    trace_cap = recorder.max_events if recorder is not None else 0
    injected_by_slot, delivered_by_node, events, attempts, stall = sweep(
        state, sim.config, replay_sources(schedule), trace_cap
    )
    if recorder is not None:
        room = recorder.max_events - len(recorder.events)
        recorder.events.extend(starmap(TraceEvent, events[: max(0, room)]))
        if attempts > room:
            recorder.truncated = True
    if stall is not None:
        raise deadlock_error(*stall)

    count = len(schedule.cycle)
    injected = np.full(count, -1, dtype=np.int64)
    injected[list(injected_by_slot)] = list(injected_by_slot.values())
    dlv_node: list[int] = []
    dlv_slot: list[int] = []
    dlv_cycle: list[int] = []
    for node in fabric.nodes:
        items = delivered_by_node[node]
        dlv_node += [node] * len(items)
        dlv_slot += [slot for slot, _ in items]
        dlv_cycle += [cycle for _, cycle in items]
    slots = np.array(dlv_slot, dtype=np.int64)
    delivered = np.full(count, -1, dtype=np.int64)
    delivered[slots] = dlv_cycle
    sim.packet_log = PacketLog(
        schedule.first_id,
        schedule.commodity,
        schedule.measured,
        schedule.cycle,
        injected,
        delivered,
        np.array(dlv_node, dtype=np.int64),
        slots,
    )
    sim.carried = state.carried
