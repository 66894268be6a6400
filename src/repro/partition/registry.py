"""Partitioner registry and the metis -> greedy-edge -> round-robin ladder.

Partitioners register by name in a :class:`~repro.registry.Registry` and
resolve down a :class:`~repro.registry.Ladder`: ``metis`` is probed once
per process, the pure-python rungs are always available, and
``REPRO_NO_METIS=1`` pins them for CI's fallback-rot guard.
"""

from __future__ import annotations

import importlib
import logging
from typing import Callable

from repro.errors import PartitionError
from repro.partition.spec import PartitionSpec
from repro.registry import Ladder, Registry

def _load_partitioners() -> None:
    import repro.partition.algorithms  # noqa: F401


def metis_module() -> tuple[object | None, str]:
    """The metis rung's probe: ``(module, reason)`` for the first binding
    that imports — ``pymetis`` (adjacency-list API), then ``metis``
    (networkx-flavoured) — or ``(None, reason)``."""
    for binding in ("pymetis", "metis"):
        try:
            return importlib.import_module(binding), f"{binding} importable"
        except ImportError:
            pass
    return None, (
        "optional dependency not installed (no 'pymetis' or 'metis' module importable)"
    )


#: ``auto`` takes the best cut quality first.
LADDER = Ladder(
    "partitioner",
    {"metis": metis_module},
    ("metis", "greedy-edge", "round-robin"),
    kill="REPRO_NO_METIS",
    logger=logging.getLogger("repro.partition"),
)

#: name -> ``(fn(topology, num_shards) -> PartitionSpec, summary)``, listed
#: in ladder order.
PARTITIONERS = Registry(
    "partitioner", PartitionError, _load_partitioners, order=LADDER.order
)


def register_partitioner(name: str, *, summary: str = "") -> Callable:
    """Function decorator registering a partitioner under ``name``."""
    return PARTITIONERS.register(name, lambda fn: (fn, summary))


#: All registered partitioner names, ladder order first.
list_partitioners = PARTITIONERS.names


def partitioner_availability(name: str) -> tuple[bool, str]:
    """Whether ``name`` can run here, with the reason it can't."""
    PARTITIONERS.get(name)
    available, _, reason = LADDER.probe(name)
    return available, reason


def available_partitioners() -> list[dict]:
    """Ladder introspection rows, shaped like ``jit.available_backends``."""
    return LADDER.rows(list_partitioners())


def resolve_partitioner(name: str = "auto") -> tuple[str, str]:
    """Resolve ``name`` to a runnable partitioner: ``(name, reason)``.

    ``"auto"`` takes the first available rung; a concrete name resolves to
    itself when available and raises otherwise.
    """
    if name != "auto":
        PARTITIONERS.get(name)
    resolved, _, reason = LADDER.resolve(name)
    if resolved is None:  # a named rung only: auto ends on a pure-python one
        raise PartitionError(f"partitioner {name!r} unavailable: {reason}")
    return resolved, reason


def partition_topology(
    topology, num_shards: int, method: str = "auto"
) -> PartitionSpec:
    """Partition ``topology`` into ``num_shards`` shards.

    Raises:
        PartitionError: for a non-positive or oversubscribed shard count,
            an unknown method, or an explicitly requested but unavailable
            one.
    """
    if num_shards < 1:
        raise PartitionError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > topology.num_nodes:
        raise PartitionError(
            f"cannot split {topology.num_nodes} routers into "
            f"{num_shards} non-empty shards"
        )
    resolved, _ = resolve_partitioner(method)
    fn, _ = PARTITIONERS.get(resolved)
    spec = fn(topology, num_shards)
    if spec.num_shards != num_shards:
        raise PartitionError(
            f"partitioner {resolved!r} produced {spec.num_shards} "
            f"non-empty shards, {num_shards} were requested"
        )
    return spec
