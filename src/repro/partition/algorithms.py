"""The three partitioners: metis (optional), greedy-edge, round-robin.

The ladder follows fpgagraphlib's ``CoreConfig`` (see SNIPPETS.md): a real
graph partitioner when the optional dependency is installed, a greedy
edge-affinity region grower as the always-available quality rung, and
round-robin as the trivially correct floor.  Every partitioner is
deterministic — same topology, same shard count, same cut — because the
sharded engine's bit-identity contract extends to anything that feeds it.
"""

from __future__ import annotations

from repro.errors import PartitionError
from repro.partition.registry import LADDER, register_partitioner
from repro.partition.spec import PartitionSpec, spec_from_assignment


def _compact_labels(membership, num_shards: int) -> list[int]:
    """Renumber arbitrary part labels to dense 0..k-1 by first appearance.

    METIS may label parts arbitrarily (and, rarely, leave one empty); the
    :class:`PartitionSpec` contract wants dense non-empty shard ids.  An
    empty part is a hard error here — the caller asked for ``num_shards``
    workers and silently running fewer would skew the balance story.
    """
    remap: dict[int, int] = {}
    compact = []
    for label in membership:
        if label not in remap:
            remap[label] = len(remap)
        compact.append(remap[label])
    if len(remap) != num_shards:
        raise PartitionError(
            f"metis produced {len(remap)} non-empty parts, "
            f"{num_shards} were requested"
        )
    return compact


@register_partitioner(
    "metis", summary="multilevel k-way graph partitioning (optional dep)"
)
def partition_metis(topology, num_shards: int) -> PartitionSpec:
    """K-way cut via METIS, through whichever python binding is installed."""
    _, module, reason = LADDER.probe("metis")
    if module is None:
        raise PartitionError(f"metis partitioner unavailable: {reason}")
    if num_shards == 1:
        # METIS bindings reject nparts < 2; the 1-shard cut is trivial.
        return spec_from_assignment(
            topology, [0] * topology.num_nodes, "metis"
        )
    adjacency = [sorted(topology.neighbors(node)) for node in topology.nodes]
    if module.__name__ == "pymetis":
        _, membership = module.part_graph(num_shards, adjacency=adjacency)
    else:
        _, membership = module.part_graph(adjacency, num_shards)
    return spec_from_assignment(
        topology, _compact_labels(membership, num_shards), "metis"
    )


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
