"""The two partitioners: greedy-edge and round-robin.

They follow the greedy and round-robin halves of fpgagraphlib's
``CoreConfig`` (see SNIPPETS.md): a greedy edge-affinity region grower
for cut quality, and round-robin as the trivially correct floor.  Every
partitioner is deterministic — same topology, same shard count, same
cut — because ``hmap``'s mappings, and so every result built on them,
must be reproducible.
"""

from __future__ import annotations

from repro.partition.registry import register_partitioner
from repro.partition.spec import PartitionSpec, spec_from_assignment


@register_partitioner(
    "greedy-edge",
    summary="greedy edge-affinity region growing (contiguous shards)",
)
def partition_greedy_edge(topology, num_shards: int) -> PartitionSpec:
    """Grow one contiguous region per shard, maximizing internal edges.

    Each shard seeds at the lowest unassigned router and repeatedly claims
    the unassigned neighbor with the most links into the region (ties to
    the lowest id), producing compact blobs on meshes and tori.  Shard
    sizes are fixed up front to the balanced split, so ``balance`` is
    always within one router of ideal.
    """
    nodes = list(topology.nodes)
    count = len(nodes)
    base, extra = divmod(count, num_shards)
    assignment = {node: -1 for node in nodes}
    unassigned = set(nodes)
    for shard in range(num_shards):
        target = base + (1 if shard < extra else 0)
        seed = min(unassigned)
        assignment[seed] = shard
        unassigned.discard(seed)
        grown = 1
        affinity: dict[int, int] = {}
        for neighbor in topology.neighbors(seed):
            if neighbor in unassigned:
                affinity[neighbor] = 1
        while grown < target:
            if affinity:
                best = min(affinity, key=lambda n: (-affinity[n], n))
                del affinity[best]
            else:
                # The remainder of the fabric is disconnected from the
                # region (late shards on odd splits): restart from the
                # lowest unassigned router.
                best = min(unassigned)
            assignment[best] = shard
            unassigned.discard(best)
            grown += 1
            for neighbor in topology.neighbors(best):
                if neighbor in unassigned:
                    affinity[neighbor] = affinity.get(neighbor, 0) + 1
    return spec_from_assignment(
        topology, [assignment[node] for node in nodes], "greedy-edge"
    )


@register_partitioner(
    "round-robin", summary="node id modulo shard count (the trivial floor)"
)
def partition_round_robin(topology, num_shards: int) -> PartitionSpec:
    """Deal routers to shards like cards: ``shard = index % num_shards``."""
    assignment = [
        index % num_shards for index, _ in enumerate(topology.nodes)
    ]
    return spec_from_assignment(topology, assignment, "round-robin")
