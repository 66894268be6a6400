"""The engine layer: interchangeable backends that advance simulated time.

Engines drive the model layer (routers, NIs, traffic sources — see
:mod:`repro.simnoc.models`) and differ only in *how* they decide which
component to touch when:

* ``"cycle"`` — the cycle-accurate reference: a per-cycle sweep that skips
  idle components bit-exactly;
* ``"event"`` — heap-scheduled event-driven time: components are stepped
  only at cycles where they can act, and all dead time in between is
  skipped outright;
* ``"vector"`` — structure-of-arrays time: the network is flattened into
  preallocated flat/numpy arrays and advanced with no per-object dispatch
  (compiled when a kernel backend resolves, interpreted otherwise), the
  fastest backend at every measured load;
* ``"sharded"`` — the interpreted vector sweep, one worker process per
  fabric shard;
* ``"auto"`` — a policy, not a backend: always ``"vector"``, which
  flattens both router models.

Every engine produces identical simulation results on identical inputs —
the property suite pins the equivalence; the benches measure the gap.
"""

from repro.simnoc.engines.auto import AutoEngine, resolve_auto_engine
from repro.simnoc.engines.base import Engine, get_engine, list_engines
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW, CycleEngine
from repro.simnoc.engines.event import EventEngine
from repro.simnoc.engines.vector import VectorEngine

__all__ = [
    "AutoEngine",
    "CycleEngine",
    "DEADLOCK_WINDOW",
    "Engine",
    "EventEngine",
    "VectorEngine",
    "get_engine",
    "list_engines",
    "resolve_auto_engine",
]
