"""The paper's ``shortestpath()`` heuristic (§5): load-balanced minimum paths.

Commodities are processed in decreasing order of flow value.  For each, a
*quadrant graph* between its source and destination is built (every minimum
path lies inside it) and Dijkstra picks the path of least accumulated load;
the chosen links' weights are then increased by the commodity's value so
later commodities steer around hot links.

Fidelity note: we restrict the quadrant to its *monotone* links — links
that strictly approach the destination — so every candidate path is a
minimum path and Dijkstra's load-based weights purely break ties between
equal-hop paths.  Without this restriction a heavily loaded quadrant could
make Dijkstra return a non-minimal detour, which would contradict the
routine's name and the paper's delay model (Equation 7 charges every
commodity its minimum hop count).
"""

from __future__ import annotations

import heapq

from repro.errors import RoutingError
from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult, path_links


def _dijkstra(
    outgoing: "dict[int, tuple[int, ...]] | dict[int, list[int]]",
    src: int,
    dst: int,
    link_loads: dict[tuple[int, int], float],
    base_weight: float,
) -> list[int] | None:
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


def _degraded_monotone_outgoing(
    topology: NoCTopology, dst: int
) -> dict[int, list[int]]:
    """The global monotone DAG toward ``dst`` over the surviving links.

    Fault fallback: on a degraded topology a failed link can force every
    surviving minimal path *outside* the geometric quadrant, so the
    quadrant restriction no longer covers the minimal-path set.  Links that
    strictly decrease the masked (BFS) hop distance to ``dst`` do: adjacent
    nodes differ by at most one hop, so every monotone step decreases the
    distance by exactly one and every monotone path is minimal in the
    degraded fabric.
    """
    outgoing: dict[int, list[int]] = {}
    for u, v in topology.link_keys():
        if topology.distance(v, dst) < topology.distance(u, dst):
            outgoing.setdefault(u, []).append(v)
    return outgoing


def least_loaded_quadrant_path(
    topology: NoCTopology,
    src: int,
    dst: int,
    link_loads: dict[tuple[int, int], float],
    base_weight: float = 1.0,
) -> list[int]:
    """Dijkstra over the monotone quadrant graph with load-based weights.

    Args:
        topology: the mesh/torus.
        src: source node; must differ from ``dst``.
        dst: destination node.
        link_loads: current accumulated load per directed link.
        base_weight: constant added to every link weight; keeps weights
            positive and makes the zero-load case deterministic.

    Returns:
        A minimum-hop node path whose total accumulated load is minimal.
        On fault-degraded topologies, "minimum hop" means the surviving
        (BFS) hop distance, and the search widens from the quadrant to the
        full monotone DAG when a failed link leaves the quadrant without a
        monotone route.
    """
    if src == dst:
        raise RoutingError("no path needed between a node and itself")
    # The monotone quadrant DAG depends only on the (immutable) geometry, so
    # it is memoized per (src, dst) on the topology and shared across every
    # commodity and every mapping candidate NMAP prices.
    outgoing = topology.monotone_outgoing(src, dst)
    path = _dijkstra(outgoing, src, dst, link_loads, base_weight)
    if path is None and topology.is_degraded:
        # Pristine topologies never take this branch (their quadrant always
        # routes), so legacy behavior is bit-identical.
        path = _dijkstra(
            _degraded_monotone_outgoing(topology, dst),
            src, dst, link_loads, base_weight,
        )
    if path is None:
        raise RoutingError(f"quadrant graph between {src} and {dst} is disconnected")
    return path


def min_path_routing(
    topology: NoCTopology,
    commodities: list[Commodity],
    base_weight: float = 1.0,
) -> RoutingResult:
    """Route all commodities with the load-balancing quadrant heuristic.

    The commodity list from :func:`repro.graphs.build_commodities` is already
    sorted by decreasing value; this function re-sorts defensively so callers
    can pass arbitrary orders.

    Returns:
        A :class:`RoutingResult` with one explicit path per commodity.  The
        caller decides feasibility via :meth:`RoutingResult.is_feasible`
        (``shortestpath()`` returns ``maxvalue`` as the cost in that case —
        that policy lives in the mapping layer).
    """
    ordered = sorted(commodities, key=lambda c: (-c.value, c.index))
    loads: dict[tuple[int, int], float] = {}
    paths: dict[int, list[int]] = {}
    for commodity in ordered:
        path = least_loaded_quadrant_path(
            topology, commodity.src_node, commodity.dst_node, loads, base_weight
        )
        paths[commodity.index] = path
        for link in path_links(path):
            loads[link] = loads.get(link, 0.0) + commodity.value
    return RoutingResult.from_paths(topology, commodities, paths, algorithm="min-path")
