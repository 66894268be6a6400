"""Builds kernel programs: a :class:`Simulator` flattened to typed arrays.

A :class:`KernelProgram` is the bridge between the object model and the
kernels in :mod:`repro.simnoc.engines.kernels`, in whichever form a rung
runs them (CPython, numba, or the C emitted from them).  Building one

1. reuses :class:`repro.simnoc.engines.sweep._FlatState` for the wiring
   flatten (the fabric's port indexing, credits and rates — the exact
   arrays the interpreted sweep runs on), then
2. takes the run's whole injection schedule from
   :func:`repro.simnoc.schedule.build_schedule` — identical packets, ids
   and ``measured`` flags to the polling engines' — and freezes it into
   per-packet tables and per-node flit streams with array expressions, then
3. converts everything to int64/float64 numpy arrays in the canonical
   :data:`ARG_FIELDS` order — the twin's parameter list, and so numba's
   and the emitted C's.

After a backend has advanced the program, :meth:`KernelProgram.finish`
hands the observable effects back: trace events to the recorder, and the
per-port flit counts, the packets' cycles and the delivery log to the
simulator as the columns they already are (``sim.carried`` and a
:class:`~repro.simnoc.stats.PacketLog`) — producing reports and traces
bit-identical to the interpreted engines.  No model object is read or
written on the way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.simnoc.engines import kernels
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW
from repro.simnoc.engines.sweep import _FlatState
from repro.simnoc.schedule import build_schedule
from repro.simnoc.stats import PacketLog
from repro.simnoc.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator

#: Lane bitmasks (``req_vcs``) cap the kernel tier's VC count.
MAX_KERNEL_VCS = 63

#: Kernel argument order: the twin functions' parameter lists, which the
#: emitted C signatures and the ctypes binding are built from.
ARG_FIELDS = (
    "out_rate",
    "out_cap",
    "out_tokens",
    "credits",
    "in_cap",
    "in_feeder",
    "dest_in",
    "dest_node",
    "out_tokey",
    "owner",
    "owner_pkt",
    "rr_in",
    "vc_rr",
    "port_owned",
    "ins_off",
    "ins_val",
    "outs_off",
    "outs_val",
    "local_in",
    "node_buf",
    "node_owned",
    "active",
    "in_sweep",
    "qb_enter",
    "qb_slot",
    "qb_seq",
    "qb_pos",
    "q_head",
    "q_len",
    "pkt_create",
    "pkt_last",
    "pkt_vcl",
    "route_off",
    "route_val",
    "ni_off",
    "ni_ptr",
    "ni_slot",
    "ni_seq",
    "pkt_injected",
    "pkt_delivered",
    "dlv_node",
    "dlv_slot",
    "carried",
    "tr_node",
    "tr_tokey",
    "tr_slot",
    "tr_seq",
    "tr_cycle",
    "req_stamp",
    "req_vcs",
    "params",
    "result",
)

#: Fields holding float64 data; everything else is int64.
FLOAT_FIELDS = frozenset({"out_rate", "out_cap", "out_tokens", "credits"})
#: The numpy dtype of each :data:`ARG_FIELDS` array, in the same order.
ARG_DTYPES = tuple(
    np.float64 if name in FLOAT_FIELDS else np.int64 for name in ARG_FIELDS
)


def kernel_unsupported(sim: "Simulator", vc_mode: bool) -> str | None:
    """Why this run cannot take the kernel tier (``None`` = it can)."""
    if vc_mode and sim.network.config.num_vcs > MAX_KERNEL_VCS:
        return f"more than {MAX_KERNEL_VCS} virtual channels"
    trace = sim.trace
    if trace is not None and trace.max_events - len(trace.events) <= 0:
        return "trace recorder already full"
    return None


def _csr(per_node, size: int):
    off = np.zeros(size + 1, dtype=np.int64)
    vals: list[int] = []
    for node in range(size):
        vals.extend(per_node[node])
        off[node + 1] = len(vals)
    return off, np.array(vals, dtype=np.int64)


class KernelProgram:
    """One flattened replica, ready for any kernel backend.

    The array attributes (named by :data:`ARG_FIELDS`) are the kernel's
    working state; the backend mutates them in place.  :meth:`finish` then
    leaves the observable results on the simulator.
    """

    __slots__ = ARG_FIELDS + (
        "state",
        "schedule",
        "vc_mode",
        "trace_cap",
    )

    def __init__(self, sim: "Simulator", vc_mode: bool) -> None:
        self.vc_mode = vc_mode
        state = _FlatState(sim, vc_mode=vc_mode)
        self.state = state
        config = sim.config
        L = state.num_vcs

        schedule = self.schedule = build_schedule(sim, vc_mode, state.out_specs)

        # --- freeze into kernel arrays ------------------------------------
        i8 = np.int64
        num_in = len(state.in_cap)
        num_out = len(state.out_rates)
        size = len(state.local_in)
        num_lanes = num_in * L
        qstride = (max(state.in_cap) if state.in_cap else 1) + 1
        P = len(schedule.cycle)

        self.out_rate = state.out_rates
        self.out_cap = state.out_caps
        self.out_tokens = state.out_tokens
        self.credits = np.array(state.credits, dtype=np.float64)
        self.in_cap = np.array(state.in_cap, dtype=i8)
        self.in_feeder = np.array(state.in_feeder, dtype=i8)
        self.dest_in = np.array(state.out_dest_in, dtype=i8)
        self.dest_node = np.array(state.out_dest_node, dtype=i8)
        self.out_tokey = np.array(state.out_to_key, dtype=i8)
        self.owner = np.array(state.owner, dtype=i8)
        self.owner_pkt = np.array(state.owner_pkt, dtype=i8)
        self.rr_in = np.array(state.rr_in, dtype=i8)
        self.vc_rr = np.array(state.vc_rr, dtype=i8)
        self.port_owned = np.array(state.port_owned, dtype=i8)
        self.ins_off, self.ins_val = _csr(state.node_ins, size)
        self.outs_off, self.outs_val = _csr(state.node_outs, size)
        self.local_in = np.array(state.local_in, dtype=i8)
        self.node_buf = np.zeros(size, dtype=i8)
        self.node_owned = np.zeros(size, dtype=i8)
        self.active = np.zeros(size, dtype=i8)
        self.in_sweep = np.zeros(size, dtype=i8)
        self.qb_enter = np.zeros(num_lanes * qstride, dtype=i8)
        self.qb_slot = np.zeros(num_lanes * qstride, dtype=i8)
        self.qb_seq = np.zeros(num_lanes * qstride, dtype=i8)
        self.qb_pos = np.zeros(num_lanes * qstride, dtype=i8)
        self.q_head = np.zeros(num_lanes, dtype=i8)
        self.q_len = np.zeros(num_lanes, dtype=i8)
        self.pkt_create = schedule.cycle
        self.pkt_last = schedule.flits - 1
        self.pkt_vcl = schedule.vc
        self.route_off = schedule.route_off
        self.route_val = schedule.route_val
        # Flit streams: packet k contributes flits (k, 0..num_flits-1) at
        # its source node, in creation order.
        by_node = np.argsort(schedule.src, kind="stable")
        counts = schedule.flits[by_node]
        ends = np.cumsum(counts)
        self.ni_slot = np.repeat(by_node, counts)
        self.ni_seq = np.arange(len(self.ni_slot)) - np.repeat(ends - counts, counts)
        flit_node = schedule.src[self.ni_slot]  # non-decreasing
        self.ni_off = ni_off = np.searchsorted(flit_node, np.arange(size + 1))
        self.ni_ptr = ni_off[:-1].copy()
        self.pkt_injected = np.full(P, -1, dtype=i8)
        self.pkt_delivered = np.full(P, -1, dtype=i8)
        self.dlv_node = np.zeros(P, dtype=i8)
        self.dlv_slot = np.zeros(P, dtype=i8)
        self.carried = np.array(state.carried, dtype=i8)
        trace = sim.trace
        if trace is None:
            trace_cap = 0
        else:
            remaining = trace.max_events - len(trace.events)
            bound = int((schedule.flits * np.diff(schedule.route_off)).sum())
            trace_cap = max(0, min(remaining, bound))
        self.trace_cap = trace_cap
        self.tr_node = np.zeros(trace_cap, dtype=i8)
        self.tr_tokey = np.zeros(trace_cap, dtype=i8)
        self.tr_slot = np.zeros(trace_cap, dtype=i8)
        self.tr_seq = np.zeros(trace_cap, dtype=i8)
        self.tr_cycle = np.zeros(trace_cap, dtype=i8)
        self.req_stamp = np.zeros(num_out, dtype=i8)
        self.req_vcs = np.zeros(num_out, dtype=i8)

        params = np.zeros(kernels.NUM_PARAMS, dtype=i8)
        params[0] = config.total_cycles
        params[1] = config.router_delay
        params[2] = L
        params[3] = qstride
        params[4] = size
        params[5] = num_in
        params[6] = num_out
        params[7] = P
        params[8] = trace_cap
        params[9] = DEADLOCK_WINDOW
        params[10] = num_lanes
        self.params = params
        self.result = np.zeros(kernels.NUM_RESULTS, dtype=i8)

    # ------------------------------------------------------------------
    def args(self) -> tuple:
        """The kernel argument tuple, in :data:`ARG_FIELDS` order."""
        return tuple(getattr(self, name) for name in ARG_FIELDS)

    # ------------------------------------------------------------------
    def finish(self, sim: "Simulator") -> None:
        """Hand the kernel's observable effects to ``sim``.

        Raises:
            SimulationError: on kernel-detected deadlock (identical message
                to the interpreted engines; nothing is handed over, matching
                their behavior of raising mid-run).
        """
        result = self.result.tolist()
        if result[0] == kernels.STATUS_DEADLOCK:
            raise SimulationError(
                f"deadlock: no flit moved since cycle {result[1]} "
                f"with {result[2]} flits buffered"
            )
        schedule = self.schedule

        trace = sim.trace
        if trace is not None:
            fields = (self.tr_cycle, self.tr_node, self.tr_tokey, self.tr_seq)
            cycles, nodes, to_keys, seqs = (f[: result[4]] for f in fields)
            ids = self.tr_slot[: result[4]] + schedule.first_id
            columns = (cycles, nodes, to_keys, ids, seqs)
            trace.events.extend(map(TraceEvent, *(c.tolist() for c in columns)))
            if result[5]:
                trace.truncated = True

        sim.packet_log = PacketLog(
            schedule.first_id,
            schedule.commodity,
            schedule.measured,
            self.pkt_create,
            self.pkt_injected,
            self.pkt_delivered,
            self.dlv_node[: result[6]],
            self.dlv_slot[: result[6]],
        )
        sim.carried = self.carried.tolist()
