"""The vector engine's per-cycle sweep as typed array kernels.

These functions are the one *source* of the compiled tier: numba compiles
them with ``@njit``, :mod:`repro.simnoc.engines.ckern` reads them with
:mod:`ast` and prints them as C99, and ``REPRO_JIT=py`` runs them as they
stand.  They advance one flattened replica from cycle 0 to
``total_cycles``, and are written in the subset all three accept — the
narrower of numba's and the one ``ckern``'s docstring spells out: flat
int64/float64 arrays, scalar locals that keep one type, ``range`` /
``while`` / ``if``, ``break`` / ``continue`` / bare ``return``, one
``np.empty`` scratch array, ``%`` only on non-negative values.  A
construct outside it makes the C rung unavailable (the ladder steps down,
naming the line) — so to change the compiled sweep, edit these functions
and nothing else.  ``tests/properties`` pins every tier against the cycle
engine.

The loop structure replays the interpreted SoA loops in
:mod:`repro.simnoc.engines.sweep` — which themselves replay the cycle
engine's sweep discipline — with two data-structure substitutions that are
bit-exact by construction:

* input FIFOs become fixed-stride ring buffers (``qb_*`` arrays, stride
  ``qstride`` > every port capacity), replacing deques + head mirrors;
* the sorted active-router sweep with mid-cycle ``insort`` becomes one
  ascending scan over ``in_sweep`` flags: the interpreted engine only ever
  inserts downstream nodes *ahead* of the scan position (``dn > node``), so
  an ascending full scan visits exactly the same nodes in the same order
  (a flag raised behind the scan position is simply not revisited, which is
  precisely what the interpreted engine's ``dn > node`` guard encodes);
* the per-node ``requested`` set becomes a stamp array (``req_stamp``
  holds the running per-(cycle, node) stamp; in VC mode ``req_vcs`` adds a
  lane bitmask, which caps the kernel tier at 63 virtual channels).

Traffic injection is *precomputed*: every shipped source is open-loop (its
packet schedule depends only on the cycle and its own RNG, never on network
state), so the builder in :mod:`repro.simnoc.engines.flat_kernel` drains
the sources up front, exactly replaying the engines' event-heap order, and
hands the kernel per-node flit streams (``ni_*``) plus per-packet resolved
routes (``route_*``).  Observable effects stream out through log arrays
(trace events, delivery order, per-packet injected/delivered cycles,
per-port flit counts) that the builder hands to the simulator afterwards.

Scalar parameter block (``params``, int64):

== ===============================
0  total_cycles
1  router delay
2  L (lanes per port; 1 when plain)
3  qstride (ring stride, > max capacity)
4  size (node id space, max id + 1)
5  num_in (input ports)
6  num_out (output ports)
7  P (precomputed packets)
8  trace capacity (0 = tracing off)
9  deadlock window
10 num_lanes (num_in * L)
== ===============================

Result block (``result``, int64): 0 status (1 = deadlock), 1 last
progress cycle, 2 buffered flits, 3 last refill cycle, 4 trace events
written, 5 trace truncated flag, 6 deliveries logged.
"""

from __future__ import annotations

import numpy as np

#: ``result[0]`` values.
STATUS_OK = 0
STATUS_DEADLOCK = 1

#: Entries in the scalar parameter / result blocks.
NUM_PARAMS = 12
NUM_RESULTS = 8

_INF = 1 << 62


def advance_plain(
    out_rate,
    out_cap,
    out_tokens,
    credits,
    in_cap,
    in_feeder,
    dest_in,
    dest_node,
    out_tokey,
    owner,
    owner_pkt,
    rr_in,
    vc_rr,
    port_owned,
    ins_off,
    ins_val,
    outs_off,
    outs_val,
    local_in,
    node_buf,
    node_owned,
    active,
    in_sweep,
    qb_enter,
    qb_slot,
    qb_seq,
    qb_pos,
    q_head,
    q_len,
    pkt_create,
    pkt_last,
    pkt_vcl,
    route_off,
    route_val,
    ni_off,
    ni_ptr,
    ni_slot,
    ni_seq,
    pkt_injected,
    pkt_delivered,
    dlv_node,
    dlv_slot,
    carried,
    tr_node,
    tr_tokey,
    tr_slot,
    tr_seq,
    tr_cycle,
    req_stamp,
    req_vcs,
    params,
    result,
):
    """Plain-wormhole advance (``L == 1`` layout); see the module docstring."""
    total_cycles = params[0]
    delay = params[1]
    qstride = params[3]
    size = params[4]
    num_out = params[6]
    trace_cap = params[8]
    deadlock_window = params[9]

    buffered_total = 0
    last_progress = 0
    last_refill = -1
    tr_count = 0
    tr_trunc = 0
    dlv_count = 0
    stamp = 0
    active_count = 0
    for node in range(size):
        if active[node] != 0:
            active_count += 1

    cycle = 0
    while cycle < total_cycles:
        if active_count == 0:
            # Fully idle routers: the only thing that can start activity is
            # the next precomputed packet creation (== the sources' event
            # heap top in the interpreted engines).
            next_inj = _INF
            for node in range(size):
                ptr = ni_ptr[node]
                if ptr < ni_off[node + 1]:
                    created = pkt_create[ni_slot[ptr]]
                    if created < next_inj:
                        next_inj = created
            if next_inj >= total_cycles:
                break
            if next_inj > cycle:
                cycle = next_inj

        moved = 0
        # --- NI injection: ascending node order, <= 1 flit/node/cycle ----
        for node in range(size):
            ptr = ni_ptr[node]
            if ptr < ni_off[node + 1]:
                slot = ni_slot[ptr]
                if pkt_create[slot] <= cycle:
                    li = local_in[node]
                    if q_len[li] < in_cap[li]:
                        seq = ni_seq[ptr]
                        ni_ptr[node] = ptr + 1
                        if seq == 0 and pkt_injected[slot] < 0:
                            pkt_injected[slot] = cycle
                        tail = li * qstride + (q_head[li] + q_len[li]) % qstride
                        qb_enter[tail] = cycle
                        qb_slot[tail] = slot
                        qb_seq[tail] = seq
                        qb_pos[tail] = 0
                        q_len[li] += 1
                        node_buf[node] += 1
                        buffered_total += 1
                        moved += 1
                        if active[node] == 0:
                            active[node] = 1
                            active_count += 1

        if active_count > 0:
            # Token refill catch-up: min(t + rate, cap) once per pending
            # cycle, stopping early once every bucket sits at its cap (a
            # fixpoint of the update) — identical to the interpreted replay.
            pending = cycle - last_refill
            last_refill = cycle
            while pending > 0:
                all_sat = True
                for p in range(num_out):
                    t = out_tokens[p] + out_rate[p]
                    if t > out_cap[p]:
                        t = out_cap[p]
                    out_tokens[p] = t
                    if t != out_cap[p]:
                        all_sat = False
                pending -= 1
                if pending > 0 and all_sat:
                    break

            limit = cycle - delay
            for node in range(size):
                in_sweep[node] = active[node]
            for node in range(size):
                if in_sweep[node] == 0:
                    continue
                i0 = ins_off[node]
                nin = ins_off[node + 1] - i0
                stamp += 1
                have_req = False
                for k in range(i0, i0 + nin):
                    i = ins_val[k]
                    if q_len[i] > 0:
                        h = i * qstride + q_head[i]
                        if qb_enter[h] <= limit and qb_seq[h] == 0:
                            out = route_val[route_off[qb_slot[h]] + qb_pos[h]]
                            req_stamp[out] = stamp
                            have_req = True
                if not have_req and node_owned[node] == 0:
                    continue

                for kp in range(outs_off[node], outs_off[node + 1]):
                    p = outs_val[kp]
                    ow = owner[p]
                    if ow < 0:
                        if req_stamp[p] != stamp:
                            continue
                        start = rr_in[p]
                        for offset in range(nin):
                            j = start + offset
                            if j >= nin:
                                j -= nin
                            i = ins_val[i0 + j]
                            if q_len[i] > 0:
                                h = i * qstride + q_head[i]
                                if (
                                    qb_enter[h] <= limit
                                    and qb_seq[h] == 0
                                    and route_val[route_off[qb_slot[h]] + qb_pos[h]]
                                    == p
                                ):
                                    rr_in[p] = j + 1 if j + 1 < nin else 0
                                    owner[p] = i
                                    owner_pkt[p] = qb_slot[h]
                                    node_owned[node] += 1
                                    ow = i
                                    break
                        if ow < 0:
                            continue

                    my_pkt = owner_pkt[p]
                    if credits[p] < 1.0 or q_len[ow] == 0:
                        continue
                    h = ow * qstride + q_head[ow]
                    if qb_enter[h] > limit or qb_slot[h] != my_pkt:
                        continue
                    tk = out_tokens[p]
                    if tk < 1.0:
                        continue
                    advanced = 0
                    my_last = pkt_last[my_pkt]
                    fdr = in_feeder[ow]
                    di = dest_in[p]
                    while True:
                        if tk < 1.0 or credits[p] < 1.0 or q_len[ow] == 0:
                            break
                        h = ow * qstride + q_head[ow]
                        if qb_enter[h] > limit or qb_slot[h] != my_pkt:
                            break
                        seq = qb_seq[h]
                        pos = qb_pos[h]
                        q_head[ow] = (q_head[ow] + 1) % qstride
                        q_len[ow] -= 1
                        node_buf[node] -= 1
                        buffered_total -= 1
                        if fdr >= 0:
                            credits[fdr] += 1.0
                        tk -= 1.0
                        credits[p] -= 1.0
                        carried[p] += 1
                        advanced += 1
                        if trace_cap > 0:
                            if tr_count < trace_cap:
                                tr_node[tr_count] = node
                                tr_tokey[tr_count] = out_tokey[p]
                                tr_slot[tr_count] = my_pkt
                                tr_seq[tr_count] = seq
                                tr_cycle[tr_count] = cycle
                                tr_count += 1
                            else:
                                tr_trunc = 1
                        if di < 0:
                            if seq == my_last:
                                pkt_delivered[my_pkt] = cycle
                                dlv_node[dlv_count] = node
                                dlv_slot[dlv_count] = my_pkt
                                dlv_count += 1
                                owner[p] = -1
                                owner_pkt[p] = -1
                                node_owned[node] -= 1
                                break
                        else:
                            dn = dest_node[p]
                            tail = (
                                di * qstride + (q_head[di] + q_len[di]) % qstride
                            )
                            qb_enter[tail] = cycle
                            qb_slot[tail] = my_pkt
                            qb_seq[tail] = seq
                            qb_pos[tail] = pos + 1
                            q_len[di] += 1
                            node_buf[dn] += 1
                            buffered_total += 1
                            if active[dn] == 0:
                                active[dn] = 1
                                active_count += 1
                            in_sweep[dn] = 1
                            if seq == my_last:
                                owner[p] = -1
                                owner_pkt[p] = -1
                                node_owned[node] -= 1
                                break
                    if advanced > 0:
                        out_tokens[p] = tk
                        moved += advanced
                        if q_len[ow] > 0:
                            h = ow * qstride + q_head[ow]
                            if qb_enter[h] <= limit and qb_seq[h] == 0:
                                out = route_val[
                                    route_off[qb_slot[h]] + qb_pos[h]
                                ]
                                req_stamp[out] = stamp

            for node in range(size):
                if in_sweep[node] != 0:
                    if (
                        node_buf[node] == 0
                        and node_owned[node] == 0
                        and active[node] != 0
                    ):
                        active[node] = 0
                        active_count -= 1
                    in_sweep[node] = 0

        if moved > 0:
            last_progress = cycle
        elif cycle - last_progress > deadlock_window and buffered_total > 0:
            result[0] = STATUS_DEADLOCK
            result[1] = last_progress
            result[2] = buffered_total
            result[3] = last_refill
            result[4] = tr_count
            result[5] = tr_trunc
            result[6] = dlv_count
            return
        cycle += 1

    result[0] = STATUS_OK
    result[1] = last_progress
    result[2] = buffered_total
    result[3] = last_refill
    result[4] = tr_count
    result[5] = tr_trunc
    result[6] = dlv_count


def advance_vc(
    out_rate,
    out_cap,
    out_tokens,
    credits,
    in_cap,
    in_feeder,
    dest_in,
    dest_node,
    out_tokey,
    owner,
    owner_pkt,
    rr_in,
    vc_rr,
    port_owned,
    ins_off,
    ins_val,
    outs_off,
    outs_val,
    local_in,
    node_buf,
    node_owned,
    active,
    in_sweep,
    qb_enter,
    qb_slot,
    qb_seq,
    qb_pos,
    q_head,
    q_len,
    pkt_create,
    pkt_last,
    pkt_vcl,
    route_off,
    route_val,
    ni_off,
    ni_ptr,
    ni_slot,
    ni_seq,
    pkt_injected,
    pkt_delivered,
    dlv_node,
    dlv_slot,
    carried,
    tr_node,
    tr_tokey,
    tr_slot,
    tr_seq,
    tr_cycle,
    req_stamp,
    req_vcs,
    params,
    result,
):
    """VC-wormhole advance (``L`` lanes per port); see the module docstring."""
    total_cycles = params[0]
    delay = params[1]
    L = params[2]
    qstride = params[3]
    size = params[4]
    num_out = params[6]
    trace_cap = params[8]
    deadlock_window = params[9]

    buffered_total = 0
    last_progress = 0
    last_refill = -1
    tr_count = 0
    tr_trunc = 0
    dlv_count = 0
    stamp = 0
    active_count = 0
    for node in range(size):
        if active[node] != 0:
            active_count += 1
    popped = np.empty(L, np.int64)

    cycle = 0
    while cycle < total_cycles:
        if active_count == 0:
            next_inj = _INF
            for node in range(size):
                ptr = ni_ptr[node]
                if ptr < ni_off[node + 1]:
                    created = pkt_create[ni_slot[ptr]]
                    if created < next_inj:
                        next_inj = created
            if next_inj >= total_cycles:
                break
            if next_inj > cycle:
                cycle = next_inj

        moved = 0
        for node in range(size):
            ptr = ni_ptr[node]
            if ptr < ni_off[node + 1]:
                slot = ni_slot[ptr]
                if pkt_create[slot] <= cycle:
                    lane = pkt_vcl[slot]
                    li = local_in[node]
                    lq = li * L + lane
                    if q_len[lq] < in_cap[li]:
                        seq = ni_seq[ptr]
                        ni_ptr[node] = ptr + 1
                        if seq == 0 and pkt_injected[slot] < 0:
                            pkt_injected[slot] = cycle
                        tail = lq * qstride + (q_head[lq] + q_len[lq]) % qstride
                        qb_enter[tail] = cycle
                        qb_slot[tail] = slot
                        qb_seq[tail] = seq
                        qb_pos[tail] = 0
                        q_len[lq] += 1
                        node_buf[node] += 1
                        buffered_total += 1
                        moved += 1
                        if active[node] == 0:
                            active[node] = 1
                            active_count += 1

        if active_count > 0:
            pending = cycle - last_refill
            last_refill = cycle
            while pending > 0:
                all_sat = True
                for p in range(num_out):
                    t = out_tokens[p] + out_rate[p]
                    if t > out_cap[p]:
                        t = out_cap[p]
                    out_tokens[p] = t
                    if t != out_cap[p]:
                        all_sat = False
                pending -= 1
                if pending > 0 and all_sat:
                    break

            limit = cycle - delay
            for node in range(size):
                in_sweep[node] = active[node]
            for node in range(size):
                if in_sweep[node] == 0:
                    continue
                i0 = ins_off[node]
                nin = ins_off[node + 1] - i0
                stamp += 1
                have_req = False
                for k in range(i0, i0 + nin):
                    base = ins_val[k] * L
                    for vc in range(L):
                        iq = base + vc
                        if q_len[iq] > 0:
                            h = iq * qstride + q_head[iq]
                            if qb_enter[h] <= limit and qb_seq[h] == 0:
                                out = route_val[
                                    route_off[qb_slot[h]] + qb_pos[h]
                                ]
                                if req_stamp[out] != stamp:
                                    req_stamp[out] = stamp
                                    req_vcs[out] = 0
                                req_vcs[out] |= 1 << vc
                                have_req = True
                if not have_req and node_owned[node] == 0:
                    continue

                for kp in range(outs_off[node], outs_off[node + 1]):
                    p = outs_val[kp]
                    have_wanted = req_stamp[p] == stamp
                    if not have_wanted and port_owned[p] == 0:
                        continue
                    base_p = p * L
                    if have_wanted:
                        # Lane allocation: each requested free lane
                        # arbitrates independently, ascending lane id.
                        for vc in range(L):
                            if req_vcs[p] & (1 << vc) == 0:
                                continue
                            pl = base_p + vc
                            if owner[pl] >= 0:
                                continue
                            start = rr_in[pl]
                            for offset in range(nin):
                                j = start + offset
                                if j >= nin:
                                    j -= nin
                                iq = ins_val[i0 + j] * L + vc
                                if q_len[iq] > 0:
                                    h = iq * qstride + q_head[iq]
                                    if (
                                        qb_enter[h] <= limit
                                        and qb_seq[h] == 0
                                        and route_val[
                                            route_off[qb_slot[h]] + qb_pos[h]
                                        ]
                                        == p
                                    ):
                                        rr_in[pl] = j + 1 if j + 1 < nin else 0
                                        owner[pl] = ins_val[i0 + j]
                                        owner_pkt[pl] = qb_slot[h]
                                        port_owned[p] += 1
                                        node_owned[node] += 1
                                        break

                    # Switch traversal: the shared token budget round-robins
                    # across lanes flit by flit; the token read is deferred
                    # until a lane actually has a movable flit.
                    advanced = 0
                    n_popped = 0
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
                            if q_len[oq] == 0:
                                continue
                            h = oq * qstride + q_head[oq]
                            if qb_enter[h] > limit or qb_slot[h] != my_pkt:
                                continue
                            if tk < 0.0:
                                tk = out_tokens[p]
                            if tk < 1.0:
                                starved = True
                                break
                            seq = qb_seq[h]
                            pos = qb_pos[h]
                            q_head[oq] = (q_head[oq] + 1) % qstride
                            q_len[oq] -= 1
                            seen = False
                            for s in range(n_popped):
                                if popped[s] == oq:
                                    seen = True
                                    break
                            if not seen:
                                popped[n_popped] = oq
                                n_popped += 1
                            node_buf[node] -= 1
                            buffered_total -= 1
                            fdr = in_feeder[ow]
                            if fdr >= 0:
                                credits[fdr * L + vc] += 1.0
                            tk -= 1.0
                            credits[pl] -= 1.0
                            carried[p] += 1
                            advanced += 1
                            if trace_cap > 0:
                                if tr_count < trace_cap:
                                    tr_node[tr_count] = node
                                    tr_tokey[tr_count] = out_tokey[p]
                                    tr_slot[tr_count] = my_pkt
                                    tr_seq[tr_count] = seq
                                    tr_cycle[tr_count] = cycle
                                    tr_count += 1
                                else:
                                    tr_trunc = 1
                            if di < 0:
                                if seq == pkt_last[my_pkt]:
                                    pkt_delivered[my_pkt] = cycle
                                    dlv_node[dlv_count] = node
                                    dlv_slot[dlv_count] = my_pkt
                                    dlv_count += 1
                                    owner[pl] = -1
                                    owner_pkt[pl] = -1
                                    port_owned[p] -= 1
                                    node_owned[node] -= 1
                            else:
                                dq = di * L + vc
                                tail = (
                                    dq * qstride
                                    + (q_head[dq] + q_len[dq]) % qstride
                                )
                                qb_enter[tail] = cycle
                                qb_slot[tail] = my_pkt
                                qb_seq[tail] = seq
                                qb_pos[tail] = pos + 1
                                q_len[dq] += 1
                                node_buf[dn] += 1
                                buffered_total += 1
                                if active[dn] == 0:
                                    active[dn] = 1
                                    active_count += 1
                                in_sweep[dn] = 1
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
                    if advanced > 0:
                        out_tokens[p] = tk
                        moved += advanced
                        for s in range(n_popped):
                            oq = popped[s]
                            if q_len[oq] > 0:
                                h = oq * qstride + q_head[oq]
                                if qb_enter[h] <= limit and qb_seq[h] == 0:
                                    out = route_val[
                                        route_off[qb_slot[h]] + qb_pos[h]
                                    ]
                                    if req_stamp[out] != stamp:
                                        req_stamp[out] = stamp
                                        req_vcs[out] = 0
                                    req_vcs[out] |= 1 << (oq % L)

            for node in range(size):
                if in_sweep[node] != 0:
                    if (
                        node_buf[node] == 0
                        and node_owned[node] == 0
                        and active[node] != 0
                    ):
                        active[node] = 0
                        active_count -= 1
                    in_sweep[node] = 0

        if moved > 0:
            last_progress = cycle
        elif cycle - last_progress > deadlock_window and buffered_total > 0:
            result[0] = STATUS_DEADLOCK
            result[1] = last_progress
            result[2] = buffered_total
            result[3] = last_refill
            result[4] = tr_count
            result[5] = tr_trunc
            result[6] = dlv_count
            return
        cycle += 1

    result[0] = STATUS_OK
    result[1] = last_progress
    result[2] = buffered_total
    result[3] = last_refill
    result[4] = tr_count
    result[5] = tr_trunc
    result[6] = dlv_count
