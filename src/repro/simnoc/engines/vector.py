"""The vector engine: the network flattened to arrays, swept without objects.

The object model (router, lane and NI objects, kept as the test oracle
under ``tests/reference``) pays a cascade of method calls, dict lookups
and attribute chains per step, and its hottest probe — "where does this
head flit go next?" — is an ``O(path length)`` ``list.index`` search per
look.  Saturation sweeps are exactly where the paper's bandwidth-constraint
story lives, and there no cycle is idle, so this engine attacks the
constant factor instead of the cycle count: the whole network is flattened into structure-of-arrays state
(:class:`repro.simnoc.engines.sweep._FlatState`) and advanced by whichever
form of the per-cycle sweep this host can run:

* **compiled** — when :func:`repro.simnoc.engines.jit.resolve_backend`
  finds a backend (the kernel twin emitted as C and compiled by the
  system ``cc``), ``run`` flattens the simulation —
  including the precomputed open-loop injection schedule — into a
  :class:`~repro.simnoc.engines.flat_kernel.KernelProgram` and advances it
  in one compiled call;
* **interpreted** — with no backend (``REPRO_NO_JIT=1``, no toolchain) or
  in a corner the kernels do not cover (more lanes than
  ``MAX_KERNEL_VCS``, an already-full trace recorder), ``run`` calls
  :func:`repro.simnoc.engines.sweep.run_in_process`, the interpreted
  per-cycle loops over every node, in the calling process.

Both forms are bit-identical to the object-model oracle on reports and
flit traces (``tests/properties``).  ``cycle``, ``event`` and ``sharded``
name this class too: the engines that once answered to them gave the same
bytes and were removed, and ``sharded``'s ``shards`` / ``partitioner``
options are still accepted but read by no engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simnoc.engines.base import register_engine
from repro.simnoc.engines.sweep import run_in_process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator

@register_engine("sharded")
@register_engine("event")
@register_engine("cycle")
@register_engine("vector")
class VectorEngine:
    """Structure-of-arrays backend for both wormhole router models."""

    name = "vector"

    def run(self, sim: "Simulator") -> None:
        from repro.simnoc.engines.flat_kernel import (
            KernelProgram,
            kernel_unsupported,
        )
        from repro.simnoc.engines.jit import resolve_backend

        backend, _ = resolve_backend()
        vc_mode = sim.network.config.effective_router_model == "wormhole-vc"
        if backend is None or kernel_unsupported(sim, vc_mode) is not None:
            run_in_process(sim, vc_mode)
            return
        program = KernelProgram(sim, vc_mode)
        backend.run([program])
        program.finish(sim)
