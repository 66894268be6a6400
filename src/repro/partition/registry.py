"""Partitioner registry: greedy-edge, then round-robin.

Partitioners register by name in a :class:`~repro.registry.Registry`;
``auto`` is ``greedy-edge``, the contiguous region grower.  Both
partitioners are pure python and always run.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import PartitionError
from repro.partition.spec import PartitionSpec
from repro.registry import Registry


def _load_partitioners() -> None:
    import repro.partition.algorithms  # noqa: F401


#: name -> ``(fn(topology, num_shards) -> PartitionSpec, summary)``, the
#: best cut first.
PARTITIONERS = Registry(
    "partitioner",
    PartitionError,
    _load_partitioners,
    order=("greedy-edge", "round-robin"),
)


def register_partitioner(name: str, *, summary: str = "") -> Callable:
    """Function decorator registering a partitioner under ``name``."""
    return PARTITIONERS.register(name, lambda fn: (fn, summary))


#: All registered partitioner names, the best cut first.
list_partitioners = PARTITIONERS.names


def resolve_partitioner(name: str = "auto") -> tuple[str, str]:
    """Resolve ``name`` to a registered partitioner: ``(name, reason)``.

    ``"auto"`` is ``greedy-edge``; any other name resolves to itself, and
    an unknown one raises :class:`~repro.errors.PartitionError`.
    """
    if name == "auto":
        return "greedy-edge", "auto: the contiguous region grower"
    PARTITIONERS.get(name)
    return name, "requested explicitly"


def partition_topology(
    topology, num_shards: int, method: str = "auto"
) -> PartitionSpec:
    """Partition ``topology`` into ``num_shards`` shards.

    Raises:
        PartitionError: for a non-positive or oversubscribed shard count
            or an unknown method.
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
