"""Seed oracles for the mapping and routing kernels.

Each is the scalar loop the seed ran — name-keyed dict lookups and one
validated ``distance`` / ``traffic_between`` call per term — kept verbatim
where production now reads the index-space views.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import RoutingError
from repro.graphs.quadrant import quadrant_nodes
from repro.mapping.base import Mapping
from repro.mapping.pbb import _root_nodes
from repro.metrics.comm_cost import swap_cost_delta


def per_pair_swap_deltas(mapping, node_a: int, candidates) -> np.ndarray:
    """``SwapGains.deltas`` as the seed's scan: one O(deg) call per partner."""
    return np.array(
        [swap_cost_delta(mapping, node_a, int(b)) for b in candidates],
        dtype=np.float64,
    )


class PerMoveSwapMirror:
    """``SwapMirror`` as the seed's annealer step: the name-keyed
    ``swap_cost_delta`` per move, commits straight to the mapping."""

    def __init__(self, mapping) -> None:
        self.mapping = mapping

    def delta(self, node_a: int, node_b: int) -> float:
        return swap_cost_delta(self.mapping, node_a, node_b)

    def swap(self, node_a: int, node_b: int) -> None:
        self.mapping.swap_nodes(node_a, node_b)


def sorted_traffic_order(core_graph) -> tuple[str, ...]:
    """``CoreGraph.traffic_order`` as the seed's sort, an O(V) ``index`` per key."""
    return tuple(
        sorted(
            core_graph.cores,
            key=lambda core: (
                -core_graph.core_traffic(core),
                core_graph.cores.index(core),
            ),
        )
    )


def selection_order(core_graph) -> tuple[str, ...]:
    """``CoreGraph.max_adjacency_order`` as PMAP's seed ``_selection_order``."""
    order: list[str] = []
    selected: set[str] = set()
    first = max(
        core_graph.cores,
        key=lambda core: (core_graph.core_traffic(core), -core_graph.cores.index(core)),
    )
    order.append(first)
    selected.add(first)
    while len(order) < core_graph.num_cores:
        best = max(
            (core for core in core_graph.cores if core not in selected),
            key=lambda core: (
                sum(core_graph.traffic_between(core, other) for other in selected),
                core_graph.core_traffic(core),
                -core_graph.cores.index(core),
            ),
        )
        order.append(best)
        selected.add(best)
    return tuple(order)


def next_core_order(core_graph) -> tuple[str, ...]:
    """``CoreGraph.max_adjacency_order`` as the seed initializer's
    ``_seed_core`` followed by ``_next_core`` until every core is mapped."""
    seed = max(
        core_graph.cores,
        key=lambda core: (core_graph.core_traffic(core), -core_graph.cores.index(core)),
    )
    order = [seed]
    mapped = {seed}
    while len(mapped) < core_graph.num_cores:
        best_core = None
        best_key = None
        for core in core_graph.cores:
            if core in mapped:
                continue
            to_mapped = sum(core_graph.traffic_between(core, other) for other in mapped)
            key = (to_mapped, core_graph.core_traffic(core))
            if best_key is None or key > best_key:
                best_core = core
                best_key = key
        order.append(best_core)
        mapped.add(best_core)
    return tuple(order)


def per_node_placement_costs(mapping, core: str, candidates) -> np.ndarray:
    """``placement_costs`` as the seed's scan: per node, one ``distance``
    call per already-placed neighbor of ``core``."""
    graph, topology = mapping.core_graph, mapping.topology
    placed_neighbors = [
        (mapping.node_of(other), graph.traffic_between(core, other))
        for other in graph.neighbors(core)
        if mapping.is_mapped(other)
    ]
    return np.array(
        [
            sum(
                bandwidth * topology.distance(int(node), placed)
                for placed, bandwidth in placed_neighbors
            )
            for node in candidates
        ],
        dtype=np.float64,
    )


def scanned_best_node(mapping, core: str, candidates, pull=None) -> int:
    """``best_node`` as the seed's loops: scan the candidates in order and
    keep the first strictly smaller key — ``(cost, distance to the mesh
    center)`` in ``initialize()`` and GMAP (``pull`` given), ``(cost, node)``
    in PMAP and HMAP."""
    topology = mapping.topology
    center_x = (topology.width - 1) / 2.0
    center_y = (topology.height - 1) / 2.0
    costs = per_node_placement_costs(mapping, core, candidates).tolist()
    best_node = -1
    best_key = None
    for node, cost in zip(candidates, costs):
        x, y = topology.coords(node)
        tie_break = node if pull is None else abs(x - center_x) + abs(y - center_y)
        key = (cost, tie_break)
        if best_key is None or key < best_key:
            best_key = key
            best_node = node
    return best_node


def recomputed_frontier_pmap(core_graph, topology) -> dict[str, int]:
    """PMAP's placement as the seed ran it: node 0 seeds, and the frontier is
    rebuilt from every used node before each core is placed."""
    mapping = Mapping(core_graph, topology)
    order = selection_order(core_graph)
    mapping.assign(order[0], 0)
    for core in order[1:]:
        frontier = sorted(
            {
                neighbor
                for used in mapping.used_nodes()
                for neighbor in topology.neighbors(used)
                if mapping.core_at(neighbor) is None
            }
        )
        candidates = frontier or mapping.free_nodes()
        mapping.assign(core, scanned_best_node(mapping, core, candidates))
    return mapping.placement


def summed_affinity_clusters(core_graph, capacities: list[int]) -> list[list[str]]:
    """HMAP's ``_cluster_cores`` as the seed's loop: each candidate cluster's
    affinity re-summed from ``traffic_between``, one call per member."""
    clusters: list[list[str]] = [[] for _ in capacities]
    for core in core_graph.traffic_order():
        best = -1
        best_key: tuple[float, int, int] | None = None
        for index, members in enumerate(clusters):
            if len(members) >= capacities[index]:
                continue
            affinity = sum(
                core_graph.traffic_between(core, other) for other in members
            )
            key = (-affinity, len(members), index)
            if best_key is None or key < best_key:
                best_key = key
                best = index
        assert best >= 0, "capacities cannot hold every core"
        clusters[best].append(core)
    return clusters


def every_link_quadrant_links(
    topology, src: int, dst: int, monotone: bool = False
) -> list[tuple[int, int]]:
    """``quadrant_links`` as the seed's filter over every link of the fabric,
    two ``distance`` calls per link inside the quadrant."""
    inside = set(quadrant_nodes(topology, src, dst))
    selected: list[tuple[int, int]] = []
    for u, v in topology.link_keys():
        if u not in inside or v not in inside:
            continue
        if monotone and topology.distance(v, dst) >= topology.distance(u, dst):
            continue
        selected.append((u, v))
    return selected


def quadrant_outgoing(topology, src: int, dst: int) -> dict[int, list[int]]:
    """The monotone quadrant DAG of one commodity as an adjacency dict,
    derived afresh from every link of the fabric as the seed did."""
    outgoing: dict[int, list[int]] = {}
    for u, v in every_link_quadrant_links(topology, src, dst, monotone=True):
        outgoing.setdefault(u, []).append(v)
    return outgoing


def _dijkstra(outgoing, src, dst, link_loads, base_weight) -> list[int] | None:
    """Least-accumulated-load path over a DAG adjacency, or None.

    Dijkstra with ``(total weight, path)`` entries; ties broken by node ids
    via the path tuple, which keeps results deterministic.
    """
    best: dict[int, float] = {src: 0.0}
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
    while heap:
        weight, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return list(path)
        if weight > best.get(node, float("inf")):
            continue
        for nxt in outgoing.get(node, []):
            step = base_weight + link_loads.get((node, nxt), 0.0)
            candidate = weight + step
            if candidate < best.get(nxt, float("inf")):
                best[nxt] = candidate
                heapq.heappush(heap, (candidate, path + (nxt,)))
    return None


def dijkstra_quadrant_path(
    topology, src: int, dst: int, link_loads, base_weight: float = 1.0
) -> list[int]:
    """``least_loaded_quadrant_path`` as the seed's search: a heap Dijkstra
    over :func:`quadrant_outgoing`, and on a degraded fabric whose quadrant
    does not route, over every surviving link that approaches ``dst``."""
    if src == dst:
        raise RoutingError("no path needed between a node and itself")
    path = _dijkstra(
        quadrant_outgoing(topology, src, dst), src, dst, link_loads, base_weight
    )
    if path is None and topology.is_degraded:
        outgoing: dict[int, list[int]] = {}
        for u, v in topology.link_keys():
            if topology.distance(v, dst) < topology.distance(u, dst):
                outgoing.setdefault(u, []).append(v)
        path = _dijkstra(outgoing, src, dst, link_loads, base_weight)
    if path is None:
        raise RoutingError(f"quadrant graph between {src} and {dst} is disconnected")
    return path


def per_child_bound_pbb(
    core_graph, topology, max_queue: int, tight_bounds: bool
) -> tuple[dict[str, int], int, bool]:
    """PBB's search as the seed ran it: every child's bound re-walks every
    flow of the graph.  Returns ``(placement, expansions, overflowed)``.

    Pristine fabrics only: the seed branched onto failed routers too.
    """
    order = sorted_traffic_order(core_graph)
    core_rank = {core: rank for rank, core in enumerate(order)}
    flows: list[tuple[int, int, float]] = []
    for pair, bandwidth in core_graph.undirected_weights().items():
        lo, hi = sorted(pair, key=lambda core: core_rank[core])
        flows.append((core_rank[lo], core_rank[hi], bandwidth))
    earlier_links: dict[int, list[tuple[int, float]]] = {}
    for lo, hi, bandwidth in flows:
        earlier_links.setdefault(hi, []).append((lo, bandwidth))
    cheap_tail = [
        sum(bw for lo, hi, bw in flows if hi >= depth)
        for depth in range(len(order) + 1)
    ]

    if topology.torus:
        roots = [0]
    else:
        roots = [
            node
            for node in topology.nodes
            if topology.coords(node)[0] <= (topology.width - 1) / 2
            and topology.coords(node)[1] <= (topology.height - 1) / 2
        ]
    level = [(0.0, (node,)) for node in roots]
    expansions = 0
    overflowed = False
    for depth in range(1, len(order)):
        children = []
        links = earlier_links.get(depth, [])
        for exact, assignment in level:
            expansions += 1
            used = set(assignment)
            free = [node for node in topology.nodes if node not in used]
            if tight_bounds:
                nearest = {
                    placed: min(topology.distance(placed, node) for node in free)
                    for placed in used
                }
            for node in free:
                child_exact = exact + sum(
                    bandwidth * topology.distance(assignment[lo], node)
                    for lo, bandwidth in links
                )
                if tight_bounds:
                    bound = child_exact
                    for lo, hi, bandwidth in flows:
                        if hi <= depth:
                            continue
                        if lo <= depth:
                            placed_node = assignment[lo] if lo < depth else node
                            hop = nearest.get(placed_node, 1)
                            if placed_node == node:
                                hop = 1  # the new node's nearest-free is >= 1
                            bound += bandwidth * max(1, hop)
                        else:
                            bound += bandwidth
                else:
                    bound = child_exact + cheap_tail[depth + 1]
                children.append((bound, child_exact, assignment + (node,)))
        if len(children) > max_queue:
            overflowed = True
            children = heapq.nsmallest(max_queue, children)
        level = [(exact, assignment) for _bound, exact, assignment in children]

    _, best_assignment = min(level)
    placement = {core: best_assignment[rank] for rank, core in enumerate(order)}
    return placement, expansions, overflowed


def per_partial_pbb(
    core_graph, topology, max_queue: int, tight_bounds: bool
) -> tuple[dict[str, int], int, bool]:
    """PBB's search one partial at a time, as it ran before a tree level
    became arrays: a set of used nodes, a Python ``min`` per anchored flow
    and a tuple per child.  Returns ``(placement, expansions, overflowed)``.

    Any fabric, failed routers and links included; raises a bare
    ``ValueError`` when the cores outnumber the surviving nodes.
    """
    order = core_graph.traffic_order()
    core_rank = {core: rank for rank, core in enumerate(order)}
    flows: list[tuple[int, int, float]] = []
    for pair, bandwidth in core_graph.undirected_weights().items():
        lo, hi = sorted(pair, key=lambda core: core_rank[core])
        flows.append((core_rank[lo], core_rank[hi], bandwidth))
    earlier_links: dict[int, list[tuple[int, float]]] = {}
    for lo, hi, bandwidth in flows:
        earlier_links.setdefault(hi, []).append((lo, bandwidth))
    one_hop = [0.0] * len(order)
    anchored: list[dict[int, float]] = [{} for _ in order]
    for depth in range(len(order)):
        for lo, hi, bandwidth in flows:
            if hi <= depth:
                continue
            if tight_bounds and lo < depth:
                anchored[depth][lo] = anchored[depth].get(lo, 0.0) + bandwidth
            else:
                one_hop[depth] += bandwidth

    hops = topology.distance_rows()
    healthy = topology.healthy_nodes()
    # level entries: (exact_cost, assignment tuple)
    level: list[tuple[float, tuple[int, ...]]] = [
        (0.0, (node,)) for node in _root_nodes(topology)
    ]
    expansions = 0
    overflowed = False
    for depth in range(1, len(order)):
        children: list[tuple[float, float, tuple[int, ...]]] = []
        links = earlier_links.get(depth, [])
        for exact, assignment in level:
            expansions += 1
            used = set(assignment)
            free = [node for node in healthy if node not in used]
            tail = one_hop[depth]
            for lo, bandwidth in anchored[depth].items():
                from_anchor = hops[assignment[lo]]
                tail += bandwidth * min(from_anchor[node] for node in free)
            pulls = [(hops[assignment[lo]], bandwidth) for lo, bandwidth in links]
            for node in free:
                child_exact = exact + sum(
                    bandwidth * from_placed[node] for from_placed, bandwidth in pulls
                )
                children.append((child_exact + tail, child_exact, assignment + (node,)))
        if len(children) > max_queue:
            overflowed = True
            children = heapq.nsmallest(max_queue, children)
        level = [(exact, assignment) for _bound, exact, assignment in children]

    _best_exact, best_assignment = min(level)
    placement = {core: best_assignment[rank] for rank, core in enumerate(order)}
    return placement, expansions, overflowed
