"""The sharded engine: conservative parallel discrete-event over shards.

The fabric is cut into shards by :mod:`repro.partition`; one worker process
per shard advances its region of the network with the interpreted ranged
sweep of :mod:`repro.simnoc.engines.sweep` — the very loops the ``vector``
engine falls back to without a compiled kernel — and boundary traffic
crosses shard borders as per-cycle message batches.  This module is only
the parent, the processes and the channels; one shard needs none of them
and runs the loop in the calling process.  The contract is the same as
every other engine's: **bit-identical reports and flit traces to the
single-process cycle engine, for any shard count** — parallelism is a
wall-clock optimization, never an accuracy trade.

Why this is exact, in brief (ARCHITECTURE.md carries the long form):

* **Segments.** Worker state is the full flattened network (workers fork
  from the parent before anything runs, so flat indices agree everywhere);
  each worker only *sweeps* the segments it owns — maximal runs of
  consecutive same-shard node ids.  The single-process movement phase
  sweeps nodes in ascending id order, so the global sweep is exactly the
  concatenation of all segments in order: cross-segment effects only ever
  flow "forward" (to a later segment, visible the same cycle) or
  "backward" (to an earlier segment, visible next cycle — the pushing node
  has the higher id, so the receiving node's sweep is already past).

* **Channels.** For every fabric-adjacent segment pair owned by different
  workers there is a directed channel.  A channel carries one batch per
  cycle — possibly empty (a null message, which is what makes the barrier
  conservative and deadlock-free: the (cycle, segment) dependency graph is
  a DAG).  Forward batches (lower -> higher segment) are tagged with the
  current cycle and applied before the receiving segment's sweep of that
  same cycle; backward batches are tagged with the cycle they were
  produced and applied at the start of the next cycle.  Flit entries queue
  with their *tag* as the enter cycle, so router-delay visibility is
  computed from the original push cycle, exactly as in one process.

* **Credits and queues have one writer.** Every input queue has exactly
  one feeder port and every output port feeds exactly one input queue, so
  each is written by exactly one channel (or locally) — batch application
  order across channels cannot matter.  Credit increments commute.

* **Injection is replayed once, in the parent.** The parent builds the
  run's injection schedule (:mod:`repro.simnoc.schedule`; the packet-id
  counter advances there, in the parent only), and packet specs are
  broadcast to every worker in creation order — so packet slot numbers
  agree across all workers and flit messages can carry slots directly.

* **Tokens are exact by catch-up.** The vectorized refill replays
  ``min(t + rate, cap)`` once per elapsed cycle since the worker's last
  refill; consumption of a port's tokens happens only in its owner's
  sweeps, so the update/consume interleaving is identical to one process
  even though idle workers skip refill calls.

The parent merges per-worker results (delivered packets in ejection order,
carried-flit counters, bounded trace streams sorted by ``(cycle, node)`` —
the single-process emission order) into the simulator's packet log and
``carried`` column, as the compiled rung leaves them, and the unchanged
``Simulator._build_report`` does the rest.  No router or NI object is built.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import traceback
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.simnoc.engines.base import register_engine
from repro.simnoc.engines.sweep import (
    _Plan,
    merge_results,
    replay_sources,
    run_in_process,
    sweep_shard,
)
from repro.simnoc.schedule import build_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator

#: Packet specs stream parent -> workers in chunks of this many cycles.
_CHUNK = 512

#: Shard count when the caller asked for the sharded engine without one.
DEFAULT_SHARDS = 2


@register_engine("sharded")
class ShardedEngine:
    """Barrier-synchronized multi-process backend over a fabric partition."""

    name = "sharded"

    def run(self, sim: "Simulator") -> None:
        from repro.partition import partition_topology

        shards = getattr(sim, "shards", None)
        if shards is None:
            shards = DEFAULT_SHARDS
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        partitioner = getattr(sim, "partitioner", None) or "auto"
        spec = partition_topology(sim.network.topology, shards, partitioner)
        vc_mode = sim.network.config.effective_router_model == "wormhole-vc"
        if spec.num_shards == 1:
            run_in_process(sim, vc_mode)
            return
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SimulationError(
                "the sharded engine needs the 'fork' start method so shard "
                "workers inherit the built network; this platform does not "
                "support it (one shard runs in-process and needs no fork)"
            )
        _run_sharded(sim, spec, vc_mode)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _run_sharded(sim: "Simulator", spec, vc_mode: bool) -> None:
    fabric = sim.network.fabric
    plan = _Plan(fabric, spec.assignment, spec.num_shards)
    ctx = multiprocessing.get_context("fork")
    num_shards = plan.num_shards
    inject_qs = [ctx.Queue() for _ in range(num_shards)]
    result_q = ctx.Queue()
    pair_qs = {pair: ctx.SimpleQueue() for pair in plan.worker_pairs}

    workers = []
    for shard in range(num_shards):
        peer_in = {src: q for (src, dst), q in pair_qs.items() if dst == shard}
        peer_out = {dst: q for (src, dst), q in pair_qs.items() if src == shard}
        worker = ctx.Process(
            target=_worker_main,
            args=(
                sim,
                vc_mode,
                plan,
                shard,
                inject_qs[shard],
                peer_in,
                peer_out,
                result_q,
            ),
            daemon=True,
        )
        worker.start()
        workers.append(worker)

    try:
        # Injection is replayed once, here; every worker gets every spec.
        schedule = build_schedule(sim, vc_mode, fabric.outputs)
        for chunk in replay_sources(schedule, sim.config.total_cycles, _CHUNK):
            for q in inject_qs:
                q.put(chunk)
        payloads = _collect_results(workers, result_q, num_shards)
    except BaseException:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join(timeout=5.0)

    merge_results(sim, schedule, payloads)


def _collect_results(workers, result_q, num_shards: int) -> dict:
    remaining = set(range(num_shards))
    payloads: dict[int, dict] = {}
    while remaining:
        try:
            message = result_q.get(timeout=2.0)
        except queue_mod.Empty:
            dead = [
                shard for shard in remaining if not workers[shard].is_alive()
            ]
            if dead:
                for worker in workers:
                    if worker.is_alive():
                        worker.terminate()
                raise SimulationError(
                    f"sharded engine: worker for shard {dead[0]} died "
                    "without reporting a result"
                )
            continue
        kind = message[0]
        if kind == "err":
            _, shard, text = message
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            raise SimulationError(
                f"sharded engine: shard {shard} worker failed:\n{text}"
            )
        _, shard, payload = message
        payloads[shard] = payload
        remaining.discard(shard)
    return payloads


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(
    sim,
    vc_mode: bool,
    plan: _Plan,
    shard: int,
    inject_q,
    peer_in: dict,
    peer_out: dict,
    result_q,
) -> None:
    try:
        payload = sweep_shard(
            sim,
            vc_mode,
            plan,
            shard,
            iter(inject_q.get, None),
            _CHUNK,
            _make_pump(peer_in, plan.seg_shard),
            peer_out,
        )
        result_q.put(("done", shard, payload))
    except BaseException:
        try:
            result_q.put(("err", shard, traceback.format_exc()))
        finally:
            for q in peer_out.values():
                try:
                    q.put(("abort",))
                except Exception:  # noqa: BLE001 — peer may be gone already
                    pass


def _make_pump(peer_in: dict, seg_shard: list[int]):
    """Blocking receive of one channel batch, via the per-pair queues.

    Messages for other channels (or future cycles) that arrive first are
    parked in ``pending`` — the wavefront pipelining means a fast upstream
    worker may run a cycle or two ahead.
    """
    pending: dict[tuple[int, int, int], tuple] = {}

    def pump(src_seg: int, dst_seg: int, tag: int) -> tuple:
        key = (src_seg, dst_seg, tag)
        batch = pending.pop(key, None)
        if batch is not None:
            return batch
        q = peer_in[seg_shard[src_seg]]
        while True:
            message = q.get()
            if message[0] == "abort":
                raise SimulationError(
                    "sharded engine: peer shard aborted mid-run"
                )
            got = (message[0], message[1], message[2])
            batch = (message[3], message[4])
            if got == key:
                return batch
            pending[got] = batch

    return pump
