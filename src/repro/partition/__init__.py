"""Graph partitioning of a fabric into regions, for hierarchical mapping.

``partition_topology(topology, num_shards, method)`` is the front door;
``method="auto"`` walks the metis -> greedy-edge -> round-robin ladder
(:mod:`repro.partition.registry`).  The result is a frozen, JSON-round-
trippable :class:`~repro.partition.spec.PartitionSpec` consumed by the
``hmap`` mapper and ``repro partition``.
"""

from repro.partition.registry import (
    available_partitioners,
    list_partitioners,
    partition_topology,
    partitioner_availability,
    register_partitioner,
    resolve_partitioner,
)
from repro.partition.spec import PartitionSpec, spec_from_assignment

__all__ = [
    "PartitionSpec",
    "available_partitioners",
    "list_partitioners",
    "partition_topology",
    "partitioner_availability",
    "register_partitioner",
    "resolve_partitioner",
    "spec_from_assignment",
]
