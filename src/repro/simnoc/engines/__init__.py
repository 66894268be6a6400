"""The engine layer: the one backend that advances simulated time.

``"vector"`` flattens the network into preallocated flat/numpy arrays and
advances it with no per-object dispatch — compiled when a kernel backend
resolves, interpreted otherwise.  ``"cycle"``, ``"event"`` and
``"sharded"`` are names of the same class: the object-model, event-driven
and multi-process engines that once answered to them gave the same bytes
and were removed, and the object model lives on under ``tests/reference``
as the oracle the property suite holds this engine to (reports and flit
traces).  ``"auto"`` is a policy, not a backend: always ``"vector"``.
"""

from repro.simnoc.engines.auto import AutoEngine, resolve_auto_engine
from repro.simnoc.engines.base import Engine, get_engine, list_engines
from repro.simnoc.engines.vector import VectorEngine

__all__ = [
    "AutoEngine",
    "Engine",
    "VectorEngine",
    "get_engine",
    "list_engines",
    "resolve_auto_engine",
]
