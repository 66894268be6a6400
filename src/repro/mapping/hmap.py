"""HMAP: partition-aware hierarchical mapping.

Divide and conquer over the fabric partition: the topology is cut into
``regions`` contiguous regions by :func:`repro.partition.partition_topology`
(the specs ``repro partition`` prints), cores are clustered into as
many groups by communication affinity, clusters are matched to regions so
heavily-communicating cluster pairs land on nearby regions, and finally
each core is placed greedily *within* its cluster's region.  The local
placement step is GMAP's incremental rule, so HMAP is exactly "GMAP with a
partition-shaped prior": the hierarchy decides roughly where each traffic
community lives, the greedy step decides exactly where.

The payoff is scoped search: on large fabrics the greedy baseline scans
every free node per core, while HMAP scans one region — and the clustering
keeps chatty cores inside one region, so most traffic stays off the
links the partition cuts.
"""

from __future__ import annotations

from repro.api.options import HmapOptions
from repro.api.registry import register_mapper
from repro.errors import MappingError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult
from repro.mapping.initializer import best_node
from repro.mapping.nmap import evaluate_single_path
from repro.partition import partition_topology


def _cluster_cores(
    core_graph: CoreGraph, capacities: list[int]
) -> list[list[str]]:
    """Greedy affinity clustering of cores into ``len(capacities)`` groups.

    Cores are taken in descending total-traffic order (GMAP's static
    order); each joins the non-full cluster with the most bandwidth to its
    current members, falling back to the emptiest cluster (lowest index on
    ties) when it talks to no placed core — which also seeds each cluster
    with one of the heaviest cores, spreading the hubs apart.
    """
    clusters: list[list[str]] = [[] for _ in capacities]
    core_index = core_graph.core_index()
    indptr, nbr_idx, nbr_wt = (a.tolist() for a in core_graph.adjacency_arrays())
    # affinity[i][c]: bandwidth between core c and cluster i's members, summed
    # in the order they joined (the order the float additions always ran in).
    affinity = [[0.0] * len(core_index) for _ in capacities]
    for core in core_graph.traffic_order():
        c = core_index[core]
        best = -1
        best_key: tuple[float, int, int] | None = None
        for index, members in enumerate(clusters):
            if len(members) >= capacities[index]:
                continue
            key = (-affinity[index][c], len(members), index)
            if best_key is None or key < best_key:
                best_key = key
                best = index
        if best < 0:
            raise MappingError(
                "hmap: region capacities cannot hold every core (after "
                "excluding failed routers)"
            )
        clusters[best].append(core)
        row = affinity[best]
        for at in range(indptr[c], indptr[c + 1]):
            row[nbr_idx[at]] += nbr_wt[at]
    return clusters


def _match_clusters_to_regions(
    core_graph: CoreGraph,
    topology: NoCTopology,
    clusters: list[list[str]],
    regions: list[list[int]],
    refine: bool,
) -> list[int]:
    """Which region each cluster occupies, minimizing traffic x distance.

    Starts from the identity matching (cluster i -> region i; both sides
    are built in the same deterministic order) and, when ``refine`` is on,
    greedily applies the best pairwise swap of two clusters' regions until
    no swap lowers the cost — the classic O(K^2) refinement, tiny because
    K is the shard count, not the core count.  Only capacity-feasible
    swaps are considered: each cluster must still fit the region it moves
    to, or the local placement phase would run out of free nodes.
    """
    count = len(clusters)
    # Inter-cluster bandwidth and inter-region centroid distance matrices.
    flow = [[0.0] * count for _ in range(count)]
    for a in range(count):
        for b in range(a + 1, count):
            total = sum(
                core_graph.traffic_between(x, y)
                for x in clusters[a]
                for y in clusters[b]
            )
            flow[a][b] = flow[b][a] = total
    centroid = []
    for members in regions:
        xs, ys = zip(*(topology.coords(node) for node in members))
        centroid.append((sum(xs) / len(xs), sum(ys) / len(ys)))
    dist = [
        [
            abs(ca[0] - cb[0]) + abs(ca[1] - cb[1])
            for cb in centroid
        ]
        for ca in centroid
    ]

    assigned = list(range(count))
    if not refine:
        return assigned

    def pair_cost(a: int, b: int) -> float:
        ra, rb = assigned[a], assigned[b]
        return flow[a][b] * dist[ra][rb]

    improved = True
    while improved:
        improved = False
        best_gain = 0.0
        best_swap: tuple[int, int] | None = None
        for a in range(count):
            for b in range(a + 1, count):
                if len(clusters[a]) > len(regions[assigned[b]]) or len(
                    clusters[b]
                ) > len(regions[assigned[a]]):
                    continue
                before = sum(
                    pair_cost(a, other) + pair_cost(b, other)
                    for other in range(count)
                    if other not in (a, b)
                )
                assigned[a], assigned[b] = assigned[b], assigned[a]
                after = sum(
                    pair_cost(a, other) + pair_cost(b, other)
                    for other in range(count)
                    if other not in (a, b)
                )
                assigned[a], assigned[b] = assigned[b], assigned[a]
                gain = before - after
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_swap = (a, b)
        if best_swap is not None:
            a, b = best_swap
            assigned[a], assigned[b] = assigned[b], assigned[a]
            improved = True
    return assigned


@register_mapper(
    "hmap",
    options=HmapOptions,
    summary="Hierarchical mapping over a fabric partition (cluster, "
    "match regions, place greedily within each)",
)
def hmap(
    core_graph: CoreGraph,
    topology: NoCTopology,
    regions: int | None = None,
    partitioner: str = "auto",
    refine: bool = True,
) -> MappingResult:
    """Run the hierarchical partition-aware mapper.

    Args:
        core_graph: application graph ``G(V, E)``.
        topology: NoC graph ``P(U, F)``.
        regions: partition size; None picks ``min(4, |V|, |U|)`` so small
            instances degrade gracefully to fewer (or one) region(s).
        partitioner: partitioner name fed to
            :func:`repro.partition.partition_topology` (``"auto"`` is
            ``greedy-edge``; ``"round-robin"`` is the other).
        refine: greedy pairwise refinement of the cluster-to-region
            matching (off = the deterministic identity matching).

    Returns:
        :class:`MappingResult` priced with the same single-minimum-path
        routing as NMAP/GMAP, so cost comparisons are apples to apples.
    """
    if core_graph.num_cores == 0:
        raise MappingError("cannot map an empty core graph")
    if regions is None:
        regions = max(1, min(4, core_graph.num_cores, topology.num_nodes))
    spec = partition_topology(topology, regions, partitioner)

    failed = topology.failed_routers
    region_nodes: list[list[int]] = [
        [node for node in spec.shard_nodes(shard) if node not in failed]
        for shard in range(spec.num_shards)
    ]
    clusters = _cluster_cores(
        core_graph, [len(members) for members in region_nodes]
    )
    placement = _match_clusters_to_regions(
        core_graph, topology, clusters, region_nodes, refine
    )

    # Local phase: GMAP's greedy rule, scoped to the cluster's region;
    # already-placed cores in *other* regions still pull, so boundary
    # cores land on their region's near edge.
    mapping = Mapping(core_graph, topology)
    cluster_of = {
        core: index
        for index, members in enumerate(clusters)
        for core in members
    }
    free: list[list[int]] = [sorted(members) for members in region_nodes]
    for core in core_graph.traffic_order():
        candidates = free[placement[cluster_of[core]]]
        node = best_node(mapping, core, candidates)
        mapping.assign(core, node)
        candidates.remove(node)

    cost, routing, feasible = evaluate_single_path(mapping)
    return MappingResult(
        mapping=mapping,
        comm_cost=cost,
        feasible=feasible,
        algorithm="hmap",
        routing=routing,
    )
