"""Graph partitioning of a fabric into regions, for hierarchical mapping.

``partition_topology(topology, num_shards, method)`` is the front door;
``method="auto"`` is the greedy-edge region grower, ``"round-robin"`` the
trivial floor (:mod:`repro.partition.registry`).  The result is a frozen,
JSON-round-trippable :class:`~repro.partition.spec.PartitionSpec` consumed
by the ``hmap`` mapper and ``repro partition``.
"""

from repro.partition.registry import (
    list_partitioners,
    partition_topology,
    register_partitioner,
    resolve_partitioner,
)
from repro.partition.spec import PartitionSpec, spec_from_assignment

__all__ = [
    "PartitionSpec",
    "list_partitioners",
    "partition_topology",
    "register_partitioner",
    "resolve_partitioner",
    "spec_from_assignment",
]
