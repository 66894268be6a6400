"""The one interpreted sweep: flattened state plus the ranged per-cycle loops.

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
    bit-identical to :func:`repro.simnoc.router.refill_bucket_to`);
  * head-of-line state (enter cycle, packet slot, sequence, hop position)
    is mirrored into flat arrays maintained on push/pop, so the visibility
    probe reads two ints instead of unpacking a deque head;
  * credits, wormhole owners, round-robin pointers and per-port flit
    counters are flat Python lists indexed by those same port ids;
  * each packet is registered once with its *resolved route*, a per-hop
    list of flat output-port indices (resolved by the injection schedule),
    so the cycle engine's per-probe ``path.index`` search becomes one
    indexed load;

* :class:`_Plan` — which node ranges (*segments*) a caller sweeps and which
  segment pairs exchange boundary batches;
* :func:`sweep_plain` / :func:`sweep_vc` — the per-cycle advance, one per
  router model, over the segments one shard of a plan owns;
* :func:`replay_sources` / :func:`merge_results` — the injection stream in
  and the observable results out: plain picklables between the loops, a
  :class:`~repro.simnoc.stats.PacketLog` and a per-port ``carried`` column
  on the simulator.

There is exactly one caller shape.  The ``sharded`` engine runs one loop
per worker process over a real partition and pumps channel batches between
them; the ``vector`` engine's no-JIT fallback (and ``sharded`` with one
shard) calls :func:`run_in_process`, the same loop over the trivial plan —
every node owned, one segment, no channels — in the calling process.  A
loop whose segments have no channel peers fast-forwards a fully idle
network to the next scheduled injection; with peers it never skips a cycle,
because every cycle owes its neighbours a (possibly empty) batch.

Wormhole arbitration is irreducibly sequential (router order within a
cycle is observable through same-cycle credit returns), so the movement
phase replays the cycle engine's exact sweep discipline — ascending node
id, mid-cycle insertion of downstream receivers, round-robin pointers
updated only on successful arbitration — with zero per-flit method calls.

One deliberate relaxation keeps the request bookkeeping cheap: after a
port moves flits, the cycle engine recomputes the full request set; the
loops only re-examine the input lanes that were popped.  The maintained
set is therefore a *superset* of the true one (entries for already-consumed
heads linger), which is harmless by construction — the set only gates
whether an ownerless port *attempts* arbitration, and an attempt with no
actual requesting head fails without mutating any state (round-robin
pointers move on success only).

Equivalence contract (property-tested in ``tests/properties``): identical
reports *and* identical flit traces to the cycle engine, for both router
models, below, at and above saturation, for any plan.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from itertools import starmap
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW
from repro.simnoc.router import LOCAL
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


class _Plan:
    """The static shape of one run: who sweeps which nodes, who talks to whom.

    ``assignment[node]`` is the shard that owns ``node`` (a
    :class:`~repro.partition.PartitionSpec` assignment, or all zeros for
    the in-process plan).  Segments are maximal runs of consecutive
    same-shard node ids in the global (ascending) sweep order; channels
    connect fabric-adjacent segments owned by different shards, in both
    directions (flits flow along a link, credits flow against it).  One
    shard means one segment and no channels.
    """

    def __init__(self, fabric, assignment, num_shards: int) -> None:
        self.num_shards = num_shards
        nodes = fabric.nodes

        seg_nodes: list[list[int]] = []
        seg_shard: list[int] = []
        for node in nodes:
            shard = assignment[node]
            if not seg_shard or seg_shard[-1] != shard:
                seg_shard.append(shard)
                seg_nodes.append([])
            seg_nodes[-1].append(node)
        self.seg_nodes = seg_nodes
        self.seg_shard = seg_shard
        num_segs = len(seg_nodes)

        size = max(nodes) + 1
        seg_of = [-1] * size
        for j, members in enumerate(seg_nodes):
            for node in members:
                seg_of[node] = j
        self.seg_of = seg_of

        shard_segments: list[list[int]] = [[] for _ in range(self.num_shards)]
        for j, shard in enumerate(seg_shard):
            shard_segments[shard].append(j)
        self.shard_segments = shard_segments

        channels: set[tuple[int, int]] = set()
        for node, to_key in fabric.outputs:
            if to_key == LOCAL:
                continue
            a, b = seg_of[node], seg_of[to_key]
            if a != b and seg_shard[a] != seg_shard[b]:
                # Flits cross a -> b; same-cycle credits cross b -> a.
                channels.add((a, b))
                channels.add((b, a))
        self.channels = channels

        #: Per segment j: remote lower segments whose forward batch
        #: (tagged with the current cycle) gates j's sweep.
        self.fwd_in: list[list[int]] = [
            sorted(i for (i, jj) in channels if jj == j and i < j)
            for j in range(num_segs)
        ]
        #: Per segment j: remote higher segments whose backward batch
        #: (tagged with the previous cycle) is applied at cycle start.
        self.bwd_in: list[list[int]] = [
            sorted(i for (i, jj) in channels if jj == j and i > j)
            for j in range(num_segs)
        ]
        #: Per segment j: every remote segment j sends a batch to, flushed
        #: right after j's sweep each cycle (empty batches included — the
        #: null messages that keep the barrier deadlock-free).
        self.out_remote: list[list[int]] = [
            sorted(k for (jj, k) in channels if jj == j)
            for j in range(num_segs)
        ]
        #: Directed worker pairs that need a message queue.
        self.worker_pairs = sorted(
            {(seg_shard[i], seg_shard[j]) for (i, j) in channels}
        )


def replay_sources(schedule, total_cycles: int, chunk_cycles: int):
    """Yield a run's :class:`~repro.simnoc.schedule.InjectionSchedule` in chunks.

    Chunk ``k`` lists, in creation order, the ``(cycle, (packet_id, vc,
    src_node, route, num_flits))`` specs of cycles ``[k * chunk_cycles,
    (k + 1) * chunk_cycles)``, ``route`` being the path as flat output-port
    indices — that global order is what makes packet slot numbers agree
    across every loop consuming the stream.  Exactly ``ceil(total_cycles /
    chunk_cycles)`` chunks come out.
    """
    routes = schedule.route_val.tolist()
    starts, ends = schedule.route_off[:-1], schedule.route_off[1:]
    columns = (schedule.cycle, schedule.vc, schedule.src, starts, ends, schedule.flits)
    specs = [
        (cycle, (pid, vc, src, routes[a:b], flits))
        for pid, (cycle, vc, src, a, b, flits) in enumerate(
            zip(*(column.tolist() for column in columns)), schedule.first_id
        )
    ]
    edges = range(0, total_cycles + chunk_cycles, chunk_cycles)
    bounds = np.searchsorted(schedule.cycle, edges).tolist()
    for start, end in zip(bounds, bounds[1:]):
        yield specs[start:end]


def _shard_tables(state, plan: _Plan, shard: int):
    """Ownership and wiring tables shared by both loops.

    ``owned[node]`` flags the shard's nodes and ``in_node[i]`` names the
    node of flat input ``i``.  ``feeder_seg[i]`` / ``dest_seg[p]`` hold the
    segment of input ``i``'s feeder / output ``p``'s downstream node when
    another shard owns it, and ``-1`` when the effect stays local — so the
    per-flit hot path pays one integer compare for being ranged.
    """
    seg_of = plan.seg_of
    owned = bytearray(len(seg_of))
    for j in plan.shard_segments[shard]:
        for node in plan.seg_nodes[j]:
            owned[node] = 1
    in_node = [spec[0] for spec in state.in_specs]
    out_node = [spec[0] for spec in state.out_specs]
    feeder_seg = [
        -1 if fdr < 0 or owned[out_node[fdr]] else seg_of[out_node[fdr]]
        for fdr in state.in_feeder
    ]
    dest_seg = [
        -1 if owned[dn] else seg_of[dn] for dn in state.out_dest_node
    ]
    return owned, in_node, feeder_seg, dest_seg


def _payload(plan, shard, state, injected_by_slot, delivered, trace_events, trace_attempts):
    """Everything :func:`merge_results` needs from one loop, as plain picklables."""
    return {
        "injected": injected_by_slot,
        "delivered": {
            node: state_delivered
            for j in plan.shard_segments[shard]
            for node in plan.seg_nodes[j]
            if (state_delivered := delivered[node])
        },
        "carried": {
            p: count for p, count in enumerate(state.carried) if count
        },
        "trace": trace_events,
        "trace_attempts": trace_attempts,
    }


def sweep_plain(
    state: _FlatState,
    config,
    plan: _Plan,
    shard: int,
    inject_chunks,
    chunk_cycles: int,
    pump,
    peer_out: dict,
    trace_cap: int,
) -> dict:
    """The plain-wormhole advance loop over the segments ``shard`` owns.

    This is the cycle engine's active-set sweep on the flat state, ranged:
    packets register from ``inject_chunks`` (an iterator over the
    :func:`replay_sources` stream; registration order is creation order, so
    slot numbers agree across every loop of a plan); pops whose credit
    belongs to a remote feeder stage a credit entry instead of incrementing
    locally; pushes to a remote downstream node stage a flit entry instead
    of appending locally; and the sweep runs one owned segment at a time
    with channel batches exchanged at the segment boundaries — received
    through ``pump(src_seg, dst_seg, tag)``, sent on ``peer_out[shard]``
    (forward: applied before the receiving segment's sweep this cycle;
    backward: applied at the start of the next cycle).  Over the one-shard
    plan nothing is remote and neither ``pump`` nor ``peer_out`` is touched.

    Returns the shard's observable results as plain picklables, for
    :func:`merge_results`.
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

    seg_of = plan.seg_of
    seg_shard = plan.seg_shard
    my_segs = plan.shard_segments[shard]
    fwd_in = plan.fwd_in
    bwd_in = plan.bwd_in
    out_remote = plan.out_remote
    owned, in_node, feeder_seg, dest_seg = _shard_tables(state, plan, shard)
    solo = not any(out_remote[j] for j in my_segs)
    #: Only owned routers are ever active, so with one owned segment the
    #: active set needs no per-segment filter.
    one_segment = len(my_segs) == 1

    pkt_ids: list[int] = []
    injected_by_slot: dict[int, int] = {}
    delivered: list = [[] for _ in range(len(plan.seg_of))]
    trace_events: list[tuple] = []
    trace_attempts = 0

    np_add = np.add
    np_minimum = np.minimum

    active_routers: set[int] = set()
    active_nis: set[int] = set()
    buffered_total = 0
    last_progress = 0
    last_refill = -1

    inj_pending: deque = deque()
    inj_chunks_total = (total_cycles + chunk_cycles - 1) // chunk_cycles
    inj_chunks_got = 0

    cycle = 0
    while cycle < total_cycles:
        # (0) Fully idle with no channel peers: nothing can happen before
        #     the next scheduled injection (token refill catches up by
        #     replay).  With peers every cycle owes them a batch: never skip.
        if solo and not active_routers and not active_nis:
            if inj_pending:
                cycle = inj_pending[0][0]
            elif inj_chunks_got == inj_chunks_total:
                break
            else:
                cycle = max(cycle, inj_chunks_got * chunk_cycles)

        # (1) Packet registrations due this cycle, from the replayed stream.
        #     Registration order is creation order, so slot numbers agree
        #     across every loop of the plan.
        while inj_chunks_got < inj_chunks_total and (
            inj_chunks_got * chunk_cycles <= cycle
        ):
            inj_pending.extend(next(inject_chunks))
            inj_chunks_got += 1
        while inj_pending and inj_pending[0][0] == cycle:
            _, (pid, vc, src, route, num_flits) = inj_pending.popleft()
            slot = len(pkt_ids)
            pkt_ids.append(pid)
            pkt_outs.append(route)
            pkt_last.append(num_flits - 1)
            state.pkt_vc.append(vc)
            if owned[src]:
                ni_queue[src].extend((slot, seq) for seq in range(num_flits))
                active_nis.add(src)

        inbound = 0

        # (2) Backward batches produced by remote higher segments last
        #     cycle become visible now (their enter cycle stays the tag).
        if cycle > 0:
            for j in my_segs:
                for i in bwd_in[j]:
                    flits, creds = pump(i, j, cycle - 1)
                    tag = cycle - 1
                    for di, _vc, slot, seq, pos in flits:
                        q = queues[di]
                        if not q:
                            head_enter[di] = tag
                            head_slot[di] = slot
                            head_seq[di] = seq
                            head_pos[di] = pos
                        q.append((tag, slot, seq, pos))
                        dn = in_node[di]
                        node_buf[dn] += 1
                        buffered_total += 1
                        active_routers.add(dn)
                    inbound += len(flits)
                    if creds:
                        for key, amount in creds.items():
                            credits[key] += amount

        # (3) NI phase — node-local state only, so running every owned
        #     node up front matches the single-process global NI pass.
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

        # (4) Token refill: value-exact regardless of which cycles ran it,
        #     because consumption of an owned port's tokens only ever
        #     happens in this loop's sweeps (catch-up replay invariant).
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

        # (5) Sweep owned segments in ascending order; the concatenation of
        #     all segments (across shards) is the cycle engine's sweep.
        for cur_seg in my_segs:
            for i in fwd_in[cur_seg]:
                flits, creds = pump(i, cur_seg, cycle)
                for di, _vc, slot, seq, pos in flits:
                    q = queues[di]
                    if not q:
                        head_enter[di] = cycle
                        head_slot[di] = slot
                        head_seq[di] = seq
                        head_pos[di] = pos
                    q.append((cycle, slot, seq, pos))
                    dn = in_node[di]
                    node_buf[dn] += 1
                    buffered_total += 1
                    active_routers.add(dn)
                inbound += len(flits)
                if creds:
                    for key, amount in creds.items():
                        credits[key] += amount

            out_flits: dict[int, list] = {}
            out_credits: dict[int, dict] = {}
            if one_segment:
                sweep = sorted(active_routers)
            else:
                sweep = sorted(
                    node for node in active_routers if seg_of[node] == cur_seg
                )
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
                    fs = feeder_seg[ow]
                    di = dest_in[p]
                    dn = dest_node[p]
                    ds = dest_seg[p]
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
                            if fs < 0:
                                credits[fdr] += 1.0
                            else:
                                batch = out_credits.get(fs)
                                if batch is None:
                                    batch = out_credits[fs] = {}
                                batch[fdr] = batch.get(fdr, 0.0) + 1.0
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
                            if ds < 0:
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
                                if (
                                    dn > node
                                    and dn not in swept
                                    and seg_of[dn] == cur_seg
                                ):
                                    insort(sweep, dn, spos + 1)
                                    swept.add(dn)
                                    sweep_len += 1
                            else:
                                batch = out_flits.get(ds)
                                if batch is None:
                                    batch = out_flits[ds] = []
                                batch.append((di, 0, my_pkt, seq, pos + 1))
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

            for k in out_remote[cur_seg]:
                peer_out[seg_shard[k]].put(
                    (
                        cur_seg,
                        k,
                        cycle,
                        out_flits.get(k, ()),
                        out_credits.get(k, ()),
                    )
                )

        if moved or inbound:
            last_progress = cycle
        elif cycle - last_progress > DEADLOCK_WINDOW and buffered_total > 0:
            raise SimulationError(
                f"deadlock: no flit moved since cycle {last_progress} "
                f"with {buffered_total} flits buffered"
            )
        cycle += 1

    return _payload(
        plan, shard, state, injected_by_slot, delivered, trace_events, trace_attempts
    )


def sweep_vc(
    state: _FlatState,
    config,
    plan: _Plan,
    shard: int,
    inject_chunks,
    chunk_cycles: int,
    pump,
    peer_out: dict,
    trace_cap: int,
) -> dict:
    """The VC-wormhole advance loop over the segments ``shard`` owns.

    Same contract as :func:`sweep_plain`, on the ``L``-lanes-per-port
    layout: staged credits key the flat lane index (``feeder * L + vc``)
    and staged flit entries carry the lane.
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

    seg_of = plan.seg_of
    seg_shard = plan.seg_shard
    my_segs = plan.shard_segments[shard]
    fwd_in = plan.fwd_in
    bwd_in = plan.bwd_in
    out_remote = plan.out_remote
    owned, in_node, feeder_seg, dest_seg = _shard_tables(state, plan, shard)
    solo = not any(out_remote[j] for j in my_segs)
    #: Only owned routers are ever active, so with one owned segment the
    #: active set needs no per-segment filter.
    one_segment = len(my_segs) == 1

    pkt_ids: list[int] = []
    injected_by_slot: dict[int, int] = {}
    delivered: list = [[] for _ in range(len(plan.seg_of))]
    trace_events: list[tuple] = []
    trace_attempts = 0

    np_add = np.add
    np_minimum = np.minimum

    active_routers: set[int] = set()
    active_nis: set[int] = set()
    buffered_total = 0
    last_progress = 0
    last_refill = -1

    inj_pending: deque = deque()
    inj_chunks_total = (total_cycles + chunk_cycles - 1) // chunk_cycles
    inj_chunks_got = 0

    cycle = 0
    while cycle < total_cycles:
        if solo and not active_routers and not active_nis:
            if inj_pending:
                cycle = inj_pending[0][0]
            elif inj_chunks_got == inj_chunks_total:
                break
            else:
                cycle = max(cycle, inj_chunks_got * chunk_cycles)

        while inj_chunks_got < inj_chunks_total and (
            inj_chunks_got * chunk_cycles <= cycle
        ):
            inj_pending.extend(next(inject_chunks))
            inj_chunks_got += 1
        while inj_pending and inj_pending[0][0] == cycle:
            _, (pid, vc, src, route, num_flits) = inj_pending.popleft()
            slot = len(pkt_ids)
            pkt_ids.append(pid)
            pkt_outs.append(route)
            pkt_last.append(num_flits - 1)
            pkt_vc.append(vc)
            if owned[src]:
                ni_queue[src].extend((slot, seq) for seq in range(num_flits))
                active_nis.add(src)

        inbound = 0

        if cycle > 0:
            for j in my_segs:
                for i in bwd_in[j]:
                    flits, creds = pump(i, j, cycle - 1)
                    tag = cycle - 1
                    for di, vc, slot, seq, pos in flits:
                        dq = di * L + vc
                        q = queues[dq]
                        if not q:
                            head_enter[dq] = tag
                            head_slot[dq] = slot
                            head_seq[dq] = seq
                            head_pos[dq] = pos
                        q.append((tag, slot, seq, pos))
                        dn = in_node[di]
                        node_buf[dn] += 1
                        buffered_total += 1
                        active_routers.add(dn)
                    inbound += len(flits)
                    if creds:
                        for key, amount in creds.items():
                            credits[key] += amount

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

        for cur_seg in my_segs:
            for i in fwd_in[cur_seg]:
                flits, creds = pump(i, cur_seg, cycle)
                for di, vc, slot, seq, pos in flits:
                    dq = di * L + vc
                    q = queues[dq]
                    if not q:
                        head_enter[dq] = cycle
                        head_slot[dq] = slot
                        head_seq[dq] = seq
                        head_pos[dq] = pos
                    q.append((cycle, slot, seq, pos))
                    dn = in_node[di]
                    node_buf[dn] += 1
                    buffered_total += 1
                    active_routers.add(dn)
                inbound += len(flits)
                if creds:
                    for key, amount in creds.items():
                        credits[key] += amount

            out_flits: dict[int, list] = {}
            out_credits: dict[int, dict] = {}
            if one_segment:
                sweep = sorted(active_routers)
            else:
                sweep = sorted(
                    node for node in active_routers if seg_of[node] == cur_seg
                )
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
                    ds = dest_seg[p]
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
                                fs = feeder_seg[ow]
                                if fs < 0:
                                    credits[fdr * L + vc] += 1.0
                                else:
                                    batch = out_credits.get(fs)
                                    if batch is None:
                                        batch = out_credits[fs] = {}
                                    key = fdr * L + vc
                                    batch[key] = batch.get(key, 0.0) + 1.0
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
                                if ds < 0:
                                    dq = di * L + vc
                                    down_queue = queues[dq]
                                    if not down_queue:
                                        head_enter[dq] = cycle
                                        head_slot[dq] = my_pkt
                                        head_seq[dq] = seq
                                        head_pos[dq] = pos + 1
                                    down_queue.append(
                                        (cycle, my_pkt, seq, pos + 1)
                                    )
                                    node_buf[dn] += 1
                                    buffered_total += 1
                                    active_routers.add(dn)
                                    if (
                                        dn > node
                                        and dn not in swept
                                        and seg_of[dn] == cur_seg
                                    ):
                                        insort(sweep, dn, spos + 1)
                                        swept.add(dn)
                                        sweep_len += 1
                                else:
                                    batch = out_flits.get(ds)
                                    if batch is None:
                                        batch = out_flits[ds] = []
                                    batch.append((di, vc, my_pkt, seq, pos + 1))
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

            for k in out_remote[cur_seg]:
                peer_out[seg_shard[k]].put(
                    (
                        cur_seg,
                        k,
                        cycle,
                        out_flits.get(k, ()),
                        out_credits.get(k, ()),
                    )
                )

        if moved or inbound:
            last_progress = cycle
        elif cycle - last_progress > DEADLOCK_WINDOW and buffered_total > 0:
            raise SimulationError(
                f"deadlock: no flit moved since cycle {last_progress} "
                f"with {buffered_total} flits buffered"
            )
        cycle += 1

    return _payload(
        plan, shard, state, injected_by_slot, delivered, trace_events, trace_attempts
    )


def merge_results(sim: "Simulator", schedule, payloads: dict) -> None:
    """Leave the loops' observables on ``sim`` as the compiled rung does.

    The packets become a :class:`~repro.simnoc.stats.PacketLog` over the
    run's ``schedule``, each node's deliveries in its owning loop's ejection
    order (one shard owns each node, so per-node order is exact), and the
    loops' per-port flit counts become ``sim.carried``.
    """
    count = len(schedule.cycle)
    injected = np.full(count, -1, dtype=np.int64)
    delivered = np.full(count, -1, dtype=np.int64)
    carried = [0] * len(sim.network.fabric.outputs)
    dlv_node: list[int] = []
    dlv_slot: list[int] = []
    dlv_cycle: list[int] = []
    for payload in payloads.values():
        injected[list(payload["injected"])] = list(payload["injected"].values())
        for node, items in payload["delivered"].items():
            dlv_node += [node] * len(items)
            dlv_slot += [slot for slot, _ in items]
            dlv_cycle += [cycle for _, cycle in items]
        for p, flits in payload["carried"].items():
            carried[p] = flits
    slots = np.array(dlv_slot, dtype=np.int64)
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
    sim.carried = carried

    recorder = sim.trace
    if recorder is not None:
        events: list[tuple] = []
        attempts = 0
        for payload in payloads.values():
            events.extend(payload["trace"])
            attempts += payload["trace_attempts"]
        if len(payloads) > 1:
            # Within one cycle the cycle engine emits in ascending node
            # order, and all events of one (cycle, node) come from one loop
            # in emission order — a stable sort on (cycle, node)
            # reconstructs the global stream exactly.
            events.sort(key=lambda item: (item[0], item[1]))
        room = recorder.max_events - len(recorder.events)
        recorder.events.extend(starmap(TraceEvent, events[: max(0, room)]))
        if attempts > room:
            recorder.truncated = True


def sweep_shard(
    sim: "Simulator",
    vc_mode: bool,
    plan: _Plan,
    shard: int,
    inject_chunks,
    chunk_cycles: int,
    pump,
    peer_out: dict,
) -> dict:
    """Flatten ``sim`` and run the router model's loop over ``shard``."""
    state = _FlatState(sim, vc_mode=vc_mode)
    sweep = sweep_vc if vc_mode else sweep_plain
    trace_cap = sim.trace.max_events if sim.trace is not None else 0
    return sweep(
        state,
        sim.config,
        plan,
        shard,
        inject_chunks,
        chunk_cycles,
        pump,
        peer_out,
        trace_cap,
    )


def run_in_process(sim: "Simulator", vc_mode: bool) -> None:
    """Advance ``sim`` with the interpreted sweep, in the calling process.

    The trivial plan — every node owned by shard 0, one segment, no
    channels — with the whole injection stream replayed up front as a
    single chunk.
    """
    fabric = sim.network.fabric
    plan = _Plan(fabric, dict.fromkeys(fabric.nodes, 0), 1)
    total_cycles = sim.config.total_cycles
    chunk_cycles = max(1, total_cycles)
    schedule = build_schedule(sim, vc_mode, fabric.outputs)
    specs = replay_sources(schedule, total_cycles, chunk_cycles)
    payload = sweep_shard(sim, vc_mode, plan, 0, specs, chunk_cycles, None, {})
    merge_results(sim, schedule, {0: payload})
