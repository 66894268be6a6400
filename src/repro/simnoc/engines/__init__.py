"""The engine layer: interchangeable backends that advance simulated time.

Engines drive the model layer (routers, NIs, traffic sources — see
:mod:`repro.simnoc.models`) and differ only in *how* they decide which
component to touch when:

* ``"cycle"`` — the cycle-accurate reference: a per-cycle sweep that skips
  idle components bit-exactly (``"event"`` is an alias of it: the
  event-driven engine of that name measured slower and was removed);
* ``"vector"`` — structure-of-arrays time: the network is flattened into
  preallocated flat/numpy arrays and advanced with no per-object dispatch
  (compiled when a kernel backend resolves, interpreted otherwise), the
  fastest backend at every measured load;
  ``"sharded"`` is an alias of it: the multi-process engine of that name
  measured slower than the one-process loop it ran and was removed;
* ``"auto"`` — a policy, not a backend: always ``"vector"``, which
  flattens both router models.

Every engine produces identical simulation results on identical inputs —
the property suite pins the equivalence; the benches measure the gap.
"""

from repro.simnoc.engines.auto import AutoEngine, resolve_auto_engine
from repro.simnoc.engines.base import Engine, get_engine, list_engines
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW, CycleEngine
from repro.simnoc.engines.vector import VectorEngine

__all__ = [
    "AutoEngine",
    "CycleEngine",
    "DEADLOCK_WINDOW",
    "Engine",
    "VectorEngine",
    "get_engine",
    "list_engines",
    "resolve_auto_engine",
]
