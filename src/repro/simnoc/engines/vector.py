"""The vector engine: the network flattened to arrays, swept without objects.

The cycle engine is object-oriented: every step is a cascade of method
calls, dict lookups and attribute chains over ``Router``/``InputPort``/
``OutputPort`` instances, and the hottest probe of all — "where does this
head flit go next?" — is an ``O(path length)`` ``list.index`` search per
look.  The event engine sidesteps that work at low load by skipping dead
cycles, but near saturation there are no dead cycles to skip and it
degenerates to the same per-object dispatch plus heap overhead.  Saturation
sweeps are exactly where the paper's bandwidth-constraint story lives, so
this engine attacks the constant factor instead of the cycle count: the
whole network is flattened into structure-of-arrays state
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
  :func:`repro.simnoc.engines.sweep.run_in_process`: the same ranged loops
  the ``sharded`` engine's workers run, over the plan that owns every node.

:func:`run_replicas` flattens many independent simulators first and hands
the list to the backend's one ``run`` loop — the engine-level face of
``run_batch(executor="replica")``.  Every form is bit-identical to the
cycle engine on reports and flit traces (``tests/properties``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.simnoc.engines.base import register_engine
from repro.simnoc.engines.sweep import run_in_process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator

@register_engine("vector")
class VectorEngine:
    """Structure-of-arrays backend for both wormhole router models."""

    name = "vector"

    def run(self, sim: "Simulator") -> None:
        error = run_replicas([sim])[0]
        if error is not None:
            raise error


def run_replicas(sims: list["Simulator"]) -> list[BaseException | None]:
    """Advance many independent simulators through one ``backend.run``.

    The compiled-replica face of the engine layer: every simulator that
    the kernel tier supports is flattened to a
    :class:`~repro.simnoc.engines.flat_kernel.KernelProgram` and the list
    goes to the backend's ``run`` loop, one compiled call per program; the
    rest (no backend resolved, unsupported corner) run one-at-a-time
    through :func:`~repro.simnoc.engines.sweep.run_in_process`, which is
    bit-identical.  :class:`VectorEngine` is this over a list of one.

    Per-slot isolation: one replica deadlocking (or failing to flatten)
    must not poison its batch-mates, so errors come back positionally —
    the returned list holds ``None`` for success or the exception for
    that slot, aligned with ``sims``.  Callers build reports afterwards
    via each simulator's ``_build_report``.
    """
    from repro.simnoc.engines.flat_kernel import (
        KernelProgram,
        kernel_unsupported,
    )
    from repro.simnoc.engines.jit import resolve_backend

    backend, _ = resolve_backend()
    errors: list[BaseException | None] = [None] * len(sims)
    batched: list[tuple[int, KernelProgram]] = []
    for index, sim in enumerate(sims):
        try:
            vc_mode = sim.network.config.effective_router_model == "wormhole-vc"
            if backend is None or kernel_unsupported(sim, vc_mode) is not None:
                run_in_process(sim, vc_mode)
            else:
                batched.append((index, KernelProgram(sim, vc_mode)))
        except SimulationError as exc:
            errors[index] = exc
    if batched:
        backend.run([program for _, program in batched])
        for index, program in batched:
            try:
                program.finish(sims[index])
            except SimulationError as exc:
                errors[index] = exc
    return errors
