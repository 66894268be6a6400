"""C mirror of the sweep kernels, compiled on demand with the system cc.

numba is the first rung of the JIT ladder, but plenty of deployment
environments (including CI fallback jobs and slim containers) have a C
toolchain and no numba wheels.  This module transliterates
:mod:`repro.simnoc.engines.kernels` statement for statement into C99,
compiles it once with whatever ``cc``/``gcc``/``clang`` is on PATH
(``-O2 -fPIC -shared``, **never** ``-ffast-math`` — token buckets must do
bit-identical IEEE double arithmetic), caches the shared object under
``~/.cache/repro-jit/`` keyed by a hash of the source, and binds it via
:mod:`ctypes`.

The only exported C symbol is ``advance_batch(R, vc_mode, <54 pointer
arrays>)``: each argument is an array of R pointers, one per replica,
aimed straight at that replica's :class:`~repro.simnoc.engines.
flat_kernel.KernelProgram` numpy arrays.  The kernels mutate the
program arrays in place — batching R replicas into one call copies
nothing, and a single replica is just ``R == 1``, so the
batched-replica path and the ordinary single-run path exercise the same
compiled code.

Everything here is optional: failure to find a compiler, to compile, or to
load raises :class:`BackendUnavailable`, and the JIT ladder steps down to
the interpreted vector engine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.simnoc.engines.flat_kernel import ARG_FIELDS, FLOAT_FIELDS


class BackendUnavailable(RuntimeError):
    """This kernel backend cannot run here (missing compiler, bad build...)."""


#: Incremented every time a compiler is actually invoked (cache misses
#: only); the warm-up hygiene test pins this.
compile_events = 0


def _c_params(batched: bool = False) -> str:
    decls = []
    for name, _ in ARG_FIELDS:
        ctype = "double" if name in FLOAT_FIELDS else "int64_t"
        if batched:
            decls.append(f"{ctype}* const* {name}")
        else:
            decls.append(f"{ctype}* {name}")
    return ",\n    ".join(decls)


def _c_args(index: str) -> str:
    args = []
    for name, _ in ARG_FIELDS:
        args.append(f"{name}[{index}]")
    return ",\n        ".join(args)


_KERNEL_BODY_PLAIN = r"""
    const int64_t total_cycles = params[0];
    const int64_t delay = params[1];
    const int64_t qstride = params[3];
    const int64_t size = params[4];
    const int64_t num_out = params[6];
    const int64_t trace_cap = params[8];
    const int64_t deadlock_window = params[9];
    const int64_t INF = (int64_t)1 << 62;

    int64_t buffered_total = 0, last_progress = 0, last_refill = -1;
    int64_t tr_count = 0, tr_trunc = 0, dlv_count = 0, stamp = 0;
    int64_t active_count = 0;
    for (int64_t node = 0; node < size; ++node)
        if (active[node]) ++active_count;

    int64_t cycle = 0;
    while (cycle < total_cycles) {
        if (active_count == 0) {
            int64_t next_inj = INF;
            for (int64_t node = 0; node < size; ++node) {
                int64_t ptr = ni_ptr[node];
                if (ptr < ni_off[node + 1]) {
                    int64_t created = pkt_create[ni_slot[ptr]];
                    if (created < next_inj) next_inj = created;
                }
            }
            if (next_inj >= total_cycles) break;
            if (next_inj > cycle) cycle = next_inj;
        }
        int64_t moved = 0;
        for (int64_t node = 0; node < size; ++node) {
            int64_t ptr = ni_ptr[node];
            if (ptr >= ni_off[node + 1]) continue;
            int64_t slot = ni_slot[ptr];
            if (pkt_create[slot] > cycle) continue;
            int64_t li = local_in[node];
            if (q_len[li] >= in_cap[li]) continue;
            int64_t seq = ni_seq[ptr];
            ni_ptr[node] = ptr + 1;
            if (seq == 0 && pkt_injected[slot] < 0) pkt_injected[slot] = cycle;
            {
                int64_t tail = li * qstride + (q_head[li] + q_len[li]) % qstride;
                qb_enter[tail] = cycle;
                qb_slot[tail] = slot;
                qb_seq[tail] = seq;
                qb_pos[tail] = 0;
            }
            q_len[li] += 1;
            node_buf[node] += 1;
            ++buffered_total;
            ni_injected[node] += 1;
            ++moved;
            if (!active[node]) { active[node] = 1; ++active_count; }
        }
        if (active_count > 0) {
            int64_t pending = cycle - last_refill;
            last_refill = cycle;
            while (pending > 0) {
                int all_sat = 1;
                for (int64_t p = 0; p < num_out; ++p) {
                    double t = out_tokens[p] + out_rate[p];
                    if (t > out_cap[p]) t = out_cap[p];
                    out_tokens[p] = t;
                    if (t != out_cap[p]) all_sat = 0;
                }
                --pending;
                if (pending > 0 && all_sat) break;
            }
            int64_t limit = cycle - delay;
            for (int64_t node = 0; node < size; ++node)
                in_sweep[node] = active[node];
            for (int64_t node = 0; node < size; ++node) {
                if (!in_sweep[node]) continue;
                int64_t i0 = ins_off[node];
                int64_t nin = ins_off[node + 1] - i0;
                ++stamp;
                int have_req = 0;
                for (int64_t k = i0; k < i0 + nin; ++k) {
                    int64_t i = ins_val[k];
                    if (q_len[i] > 0) {
                        int64_t h = i * qstride + q_head[i];
                        if (qb_enter[h] <= limit && qb_seq[h] == 0) {
                            req_stamp[route_val[route_off[qb_slot[h]] + qb_pos[h]]] = stamp;
                            have_req = 1;
                        }
                    }
                }
                if (!have_req && node_owned[node] == 0) continue;
                for (int64_t kp = outs_off[node]; kp < outs_off[node + 1]; ++kp) {
                    int64_t p = outs_val[kp];
                    int64_t ow = owner[p];
                    if (ow < 0) {
                        if (req_stamp[p] != stamp) continue;
                        int64_t start = rr_in[p];
                        for (int64_t offset = 0; offset < nin; ++offset) {
                            int64_t j = start + offset;
                            if (j >= nin) j -= nin;
                            int64_t i = ins_val[i0 + j];
                            if (q_len[i] > 0) {
                                int64_t h = i * qstride + q_head[i];
                                if (qb_enter[h] <= limit && qb_seq[h] == 0 &&
                                    route_val[route_off[qb_slot[h]] + qb_pos[h]] == p) {
                                    rr_in[p] = (j + 1 < nin) ? j + 1 : 0;
                                    owner[p] = i;
                                    owner_pkt[p] = qb_slot[h];
                                    node_owned[node] += 1;
                                    ow = i;
                                    break;
                                }
                            }
                        }
                        if (ow < 0) continue;
                    }
                    int64_t my_pkt = owner_pkt[p];
                    if (credits[p] < 1.0 || q_len[ow] == 0) continue;
                    {
                        int64_t h = ow * qstride + q_head[ow];
                        if (qb_enter[h] > limit || qb_slot[h] != my_pkt) continue;
                    }
                    double tk = out_tokens[p];
                    if (tk < 1.0) continue;
                    int64_t advanced = 0;
                    int64_t my_last = pkt_last[my_pkt];
                    int64_t fdr = in_feeder[ow];
                    int64_t di = dest_in[p];
                    for (;;) {
                        if (tk < 1.0 || credits[p] < 1.0 || q_len[ow] == 0) break;
                        int64_t h = ow * qstride + q_head[ow];
                        if (qb_enter[h] > limit || qb_slot[h] != my_pkt) break;
                        int64_t seq = qb_seq[h];
                        int64_t pos = qb_pos[h];
                        q_head[ow] = (q_head[ow] + 1) % qstride;
                        q_len[ow] -= 1;
                        node_buf[node] -= 1;
                        --buffered_total;
                        if (fdr >= 0) credits[fdr] += 1.0;
                        tk -= 1.0;
                        credits[p] -= 1.0;
                        carried[p] += 1;
                        ++advanced;
                        if (trace_cap > 0) {
                            if (tr_count < trace_cap) {
                                tr_node[tr_count] = node;
                                tr_tokey[tr_count] = out_tokey[p];
                                tr_slot[tr_count] = my_pkt;
                                tr_seq[tr_count] = seq;
                                tr_cycle[tr_count] = cycle;
                                ++tr_count;
                            } else {
                                tr_trunc = 1;
                            }
                        }
                        if (di < 0) {
                            ni_ejected[node] += 1;
                            if (seq == my_last) {
                                pkt_delivered[my_pkt] = cycle;
                                dlv_node[dlv_count] = node;
                                dlv_slot[dlv_count] = my_pkt;
                                ++dlv_count;
                                owner[p] = -1;
                                owner_pkt[p] = -1;
                                node_owned[node] -= 1;
                                break;
                            }
                        } else {
                            int64_t dn = dest_node[p];
                            int64_t tail = di * qstride + (q_head[di] + q_len[di]) % qstride;
                            qb_enter[tail] = cycle;
                            qb_slot[tail] = my_pkt;
                            qb_seq[tail] = seq;
                            qb_pos[tail] = pos + 1;
                            q_len[di] += 1;
                            node_buf[dn] += 1;
                            ++buffered_total;
                            if (!active[dn]) { active[dn] = 1; ++active_count; }
                            in_sweep[dn] = 1;
                            if (seq == my_last) {
                                owner[p] = -1;
                                owner_pkt[p] = -1;
                                node_owned[node] -= 1;
                                break;
                            }
                        }
                    }
                    if (advanced > 0) {
                        out_tokens[p] = tk;
                        moved += advanced;
                        if (q_len[ow] > 0) {
                            int64_t h = ow * qstride + q_head[ow];
                            if (qb_enter[h] <= limit && qb_seq[h] == 0)
                                req_stamp[route_val[route_off[qb_slot[h]] + qb_pos[h]]] = stamp;
                        }
                    }
                }
            }
            for (int64_t node = 0; node < size; ++node) {
                if (in_sweep[node]) {
                    if (node_buf[node] == 0 && node_owned[node] == 0 && active[node]) {
                        active[node] = 0;
                        --active_count;
                    }
                    in_sweep[node] = 0;
                }
            }
        }
        if (moved > 0) {
            last_progress = cycle;
        } else if (cycle - last_progress > deadlock_window && buffered_total > 0) {
            result[0] = 1;
            result[1] = last_progress;
            result[2] = buffered_total;
            result[3] = last_refill;
            result[4] = tr_count;
            result[5] = tr_trunc;
            result[6] = dlv_count;
            return;
        }
        ++cycle;
    }
    result[0] = 0;
    result[1] = last_progress;
    result[2] = buffered_total;
    result[3] = last_refill;
    result[4] = tr_count;
    result[5] = tr_trunc;
    result[6] = dlv_count;
"""


_KERNEL_BODY_VC = r"""
    const int64_t total_cycles = params[0];
    const int64_t delay = params[1];
    const int64_t L = params[2];
    const int64_t qstride = params[3];
    const int64_t size = params[4];
    const int64_t num_out = params[6];
    const int64_t trace_cap = params[8];
    const int64_t deadlock_window = params[9];
    const int64_t INF = (int64_t)1 << 62;

    int64_t buffered_total = 0, last_progress = 0, last_refill = -1;
    int64_t tr_count = 0, tr_trunc = 0, dlv_count = 0, stamp = 0;
    int64_t active_count = 0;
    int64_t popped[64];
    for (int64_t node = 0; node < size; ++node)
        if (active[node]) ++active_count;

    int64_t cycle = 0;
    while (cycle < total_cycles) {
        if (active_count == 0) {
            int64_t next_inj = INF;
            for (int64_t node = 0; node < size; ++node) {
                int64_t ptr = ni_ptr[node];
                if (ptr < ni_off[node + 1]) {
                    int64_t created = pkt_create[ni_slot[ptr]];
                    if (created < next_inj) next_inj = created;
                }
            }
            if (next_inj >= total_cycles) break;
            if (next_inj > cycle) cycle = next_inj;
        }
        int64_t moved = 0;
        for (int64_t node = 0; node < size; ++node) {
            int64_t ptr = ni_ptr[node];
            if (ptr >= ni_off[node + 1]) continue;
            int64_t slot = ni_slot[ptr];
            if (pkt_create[slot] > cycle) continue;
            int64_t lane = pkt_vcl[slot];
            int64_t li = local_in[node];
            int64_t lq = li * L + lane;
            if (q_len[lq] >= in_cap[li]) continue;
            int64_t seq = ni_seq[ptr];
            ni_ptr[node] = ptr + 1;
            if (seq == 0 && pkt_injected[slot] < 0) pkt_injected[slot] = cycle;
            {
                int64_t tail = lq * qstride + (q_head[lq] + q_len[lq]) % qstride;
                qb_enter[tail] = cycle;
                qb_slot[tail] = slot;
                qb_seq[tail] = seq;
                qb_pos[tail] = 0;
            }
            q_len[lq] += 1;
            node_buf[node] += 1;
            ++buffered_total;
            ni_injected[node] += 1;
            ++moved;
            if (!active[node]) { active[node] = 1; ++active_count; }
        }
        if (active_count > 0) {
            int64_t pending = cycle - last_refill;
            last_refill = cycle;
            while (pending > 0) {
                int all_sat = 1;
                for (int64_t p = 0; p < num_out; ++p) {
                    double t = out_tokens[p] + out_rate[p];
                    if (t > out_cap[p]) t = out_cap[p];
                    out_tokens[p] = t;
                    if (t != out_cap[p]) all_sat = 0;
                }
                --pending;
                if (pending > 0 && all_sat) break;
            }
            int64_t limit = cycle - delay;
            for (int64_t node = 0; node < size; ++node)
                in_sweep[node] = active[node];
            for (int64_t node = 0; node < size; ++node) {
                if (!in_sweep[node]) continue;
                int64_t i0 = ins_off[node];
                int64_t nin = ins_off[node + 1] - i0;
                ++stamp;
                int have_req = 0;
                for (int64_t k = i0; k < i0 + nin; ++k) {
                    int64_t base = ins_val[k] * L;
                    for (int64_t vc = 0; vc < L; ++vc) {
                        int64_t iq = base + vc;
                        if (q_len[iq] > 0) {
                            int64_t h = iq * qstride + q_head[iq];
                            if (qb_enter[h] <= limit && qb_seq[h] == 0) {
                                int64_t out = route_val[route_off[qb_slot[h]] + qb_pos[h]];
                                if (req_stamp[out] != stamp) {
                                    req_stamp[out] = stamp;
                                    req_vcs[out] = 0;
                                }
                                req_vcs[out] |= (int64_t)1 << vc;
                                have_req = 1;
                            }
                        }
                    }
                }
                if (!have_req && node_owned[node] == 0) continue;
                for (int64_t kp = outs_off[node]; kp < outs_off[node + 1]; ++kp) {
                    int64_t p = outs_val[kp];
                    int have_wanted = (req_stamp[p] == stamp);
                    if (!have_wanted && port_owned[p] == 0) continue;
                    int64_t base_p = p * L;
                    if (have_wanted) {
                        for (int64_t vc = 0; vc < L; ++vc) {
                            if ((req_vcs[p] & ((int64_t)1 << vc)) == 0) continue;
                            int64_t pl = base_p + vc;
                            if (owner[pl] >= 0) continue;
                            int64_t start = rr_in[pl];
                            for (int64_t offset = 0; offset < nin; ++offset) {
                                int64_t j = start + offset;
                                if (j >= nin) j -= nin;
                                int64_t iq = ins_val[i0 + j] * L + vc;
                                if (q_len[iq] > 0) {
                                    int64_t h = iq * qstride + q_head[iq];
                                    if (qb_enter[h] <= limit && qb_seq[h] == 0 &&
                                        route_val[route_off[qb_slot[h]] + qb_pos[h]] == p) {
                                        rr_in[pl] = (j + 1 < nin) ? j + 1 : 0;
                                        owner[pl] = ins_val[i0 + j];
                                        owner_pkt[pl] = qb_slot[h];
                                        port_owned[p] += 1;
                                        node_owned[node] += 1;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    int64_t advanced = 0;
                    int64_t n_popped = 0;
                    int64_t di = dest_in[p];
                    int64_t dn = dest_node[p];
                    double tk = -1.0;
                    int starved = 0;
                    while (!starved) {
                        int progressed = 0;
                        int64_t start_vc = vc_rr[p];
                        for (int64_t offset = 0; offset < L; ++offset) {
                            int64_t vc = start_vc + offset;
                            if (vc >= L) vc -= L;
                            int64_t pl = base_p + vc;
                            int64_t ow = owner[pl];
                            if (ow < 0 || credits[pl] < 1.0) continue;
                            int64_t oq = ow * L + vc;
                            int64_t my_pkt = owner_pkt[pl];
                            if (q_len[oq] == 0) continue;
                            int64_t h = oq * qstride + q_head[oq];
                            if (qb_enter[h] > limit || qb_slot[h] != my_pkt) continue;
                            if (tk < 0.0) tk = out_tokens[p];
                            if (tk < 1.0) { starved = 1; break; }
                            int64_t seq = qb_seq[h];
                            int64_t pos = qb_pos[h];
                            q_head[oq] = (q_head[oq] + 1) % qstride;
                            q_len[oq] -= 1;
                            {
                                int seen = 0;
                                for (int64_t s = 0; s < n_popped; ++s)
                                    if (popped[s] == oq) { seen = 1; break; }
                                if (!seen) popped[n_popped++] = oq;
                            }
                            node_buf[node] -= 1;
                            --buffered_total;
                            {
                                int64_t fdr = in_feeder[ow];
                                if (fdr >= 0) credits[fdr * L + vc] += 1.0;
                            }
                            tk -= 1.0;
                            credits[pl] -= 1.0;
                            carried[p] += 1;
                            ++advanced;
                            if (trace_cap > 0) {
                                if (tr_count < trace_cap) {
                                    tr_node[tr_count] = node;
                                    tr_tokey[tr_count] = out_tokey[p];
                                    tr_slot[tr_count] = my_pkt;
                                    tr_seq[tr_count] = seq;
                                    tr_cycle[tr_count] = cycle;
                                    ++tr_count;
                                } else {
                                    tr_trunc = 1;
                                }
                            }
                            if (di < 0) {
                                ni_ejected[node] += 1;
                                if (seq == pkt_last[my_pkt]) {
                                    pkt_delivered[my_pkt] = cycle;
                                    dlv_node[dlv_count] = node;
                                    dlv_slot[dlv_count] = my_pkt;
                                    ++dlv_count;
                                    owner[pl] = -1;
                                    owner_pkt[pl] = -1;
                                    port_owned[p] -= 1;
                                    node_owned[node] -= 1;
                                }
                            } else {
                                int64_t dq = di * L + vc;
                                int64_t tail = dq * qstride + (q_head[dq] + q_len[dq]) % qstride;
                                qb_enter[tail] = cycle;
                                qb_slot[tail] = my_pkt;
                                qb_seq[tail] = seq;
                                qb_pos[tail] = pos + 1;
                                q_len[dq] += 1;
                                node_buf[dn] += 1;
                                ++buffered_total;
                                if (!active[dn]) { active[dn] = 1; ++active_count; }
                                in_sweep[dn] = 1;
                                if (seq == pkt_last[my_pkt]) {
                                    owner[pl] = -1;
                                    owner_pkt[pl] = -1;
                                    port_owned[p] -= 1;
                                    node_owned[node] -= 1;
                                }
                            }
                            vc_rr[p] = (vc + 1 < L) ? vc + 1 : 0;
                            progressed = 1;
                            break;
                        }
                        if (!progressed) break;
                    }
                    if (advanced > 0) {
                        out_tokens[p] = tk;
                        moved += advanced;
                        for (int64_t s = 0; s < n_popped; ++s) {
                            int64_t oq = popped[s];
                            if (q_len[oq] > 0) {
                                int64_t h = oq * qstride + q_head[oq];
                                if (qb_enter[h] <= limit && qb_seq[h] == 0) {
                                    int64_t out = route_val[route_off[qb_slot[h]] + qb_pos[h]];
                                    if (req_stamp[out] != stamp) {
                                        req_stamp[out] = stamp;
                                        req_vcs[out] = 0;
                                    }
                                    req_vcs[out] |= (int64_t)1 << (oq % L);
                                }
                            }
                        }
                    }
                }
            }
            for (int64_t node = 0; node < size; ++node) {
                if (in_sweep[node]) {
                    if (node_buf[node] == 0 && node_owned[node] == 0 && active[node]) {
                        active[node] = 0;
                        --active_count;
                    }
                    in_sweep[node] = 0;
                }
            }
        }
        if (moved > 0) {
            last_progress = cycle;
        } else if (cycle - last_progress > deadlock_window && buffered_total > 0) {
            result[0] = 1;
            result[1] = last_progress;
            result[2] = buffered_total;
            result[3] = last_refill;
            result[4] = tr_count;
            result[5] = tr_trunc;
            result[6] = dlv_count;
            return;
        }
        ++cycle;
    }
    result[0] = 0;
    result[1] = last_progress;
    result[2] = buffered_total;
    result[3] = last_refill;
    result[4] = tr_count;
    result[5] = tr_trunc;
    result[6] = dlv_count;
"""


def _render_source() -> str:
    params = _c_params()
    batch_params = _c_params(batched=True)
    args = _c_args("r")
    return f"""/* Auto-generated from repro.simnoc.engines.ckern — do not edit. */
#include <stdint.h>

static void advance_plain_one(
    {params})
{{
{_KERNEL_BODY_PLAIN}
}}

static void advance_vc_one(
    {params})
{{
{_KERNEL_BODY_VC}
}}

int64_t advance_batch(int64_t R, int64_t vc_mode,
    {batch_params})
{{
    for (int64_t r = 0; r < R; ++r) {{
        if (vc_mode)
            advance_vc_one(
        {args});
        else
            advance_plain_one(
        {args});
    }}
    return 0;
}}
"""


SOURCE = _render_source()


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_JIT_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-jit"


def _build_library(so_path: Path) -> None:
    """Compile :data:`SOURCE` and publish it, atomically, at ``so_path``."""
    global compile_events
    compiler = _find_compiler()
    if compiler is None:
        raise BackendUnavailable("no C compiler (cc/gcc/clang) on PATH")
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
            c_path = Path(tmp) / "kernels.c"
            c_path.write_text(SOURCE)
            tmp_so = Path(tmp) / "kernels.so"
            proc = subprocess.run(
                [
                    compiler,
                    "-O2",
                    "-fPIC",
                    "-shared",
                    "-o",
                    str(tmp_so),
                    str(c_path),
                ],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise BackendUnavailable(
                    f"{compiler} failed ({proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}"
                )
            compile_events += 1
            # Atomic publish: concurrent builders race harmlessly.
            os.replace(tmp_so, so_path)
    except OSError as exc:
        raise BackendUnavailable(f"cannot build kernel library: {exc}") from exc


def load_library() -> ctypes.CDLL:
    """Compile (cache miss only) and load the kernel shared object.

    A cached entry that will not load (truncated write, wrong arch) is
    built over, once: left alone it pins the host to the interpreted rung.

    Raises:
        BackendUnavailable: no compiler on PATH, compile error, or the
            freshly built object fails to load.
    """
    digest = hashlib.sha256(SOURCE.encode()).hexdigest()[:16]
    so_path = _cache_dir() / f"simnoc_kernels_{digest}.so"
    for fresh in (not so_path.exists(), True):
        if fresh:
            _build_library(so_path)
        try:
            lib = ctypes.CDLL(str(so_path))
            break
        except OSError as exc:
            if fresh:
                raise BackendUnavailable(f"cannot load {so_path}: {exc}") from exc

    # Every kernel argument is an array of R per-replica pointers; numpy
    # uintp arrays reinterpret cleanly as `T* const*` on LP64 platforms.
    ptrvec = np.ctypeslib.ndpointer(dtype=np.uintp, flags="C_CONTIGUOUS")
    lib.advance_batch.argtypes = [ctypes.c_int64, ctypes.c_int64] + [
        ptrvec for _ in ARG_FIELDS
    ]
    lib.advance_batch.restype = ctypes.c_int64
    return lib
