"""The paper's ``shortestpath()`` heuristic (§5): load-balanced minimum paths.

Commodities are processed in decreasing order of flow value.  For each, the
*quadrant graph* between its source and destination (every minimum path
lies inside it) is searched for the path of least accumulated load; the
chosen links' weights are then increased by the commodity's value so later
commodities steer around hot links.

Fidelity note: we restrict the quadrant to its *monotone* links — links
that strictly approach the destination — so every candidate path is a
minimum path and the load-based weights purely break ties between
equal-hop paths.  Without this restriction a heavily loaded quadrant could
make a shortest-path search return a non-minimal detour, which would
contradict the routine's name and the paper's delay model (Equation 7
charges every commodity its minimum hop count).  The restriction also
layers the graph by hop distance to the destination, which is why the
search is one sweep in level order and not a heap Dijkstra; it picks the
path that Dijkstra picks (``tests/reference`` keeps that one as the oracle).
"""

from __future__ import annotations

from typing import Collection

from repro.errors import RoutingError
from repro.graphs.commodities import Commodity
from repro.graphs.quadrant import quadrant_nodes
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult, path_links


def _level_sweep(
    topology: NoCTopology,
    inside: Collection[int],
    src: int,
    dst: int,
    link_loads: dict[tuple[int, int], float],
    base_weight: float,
) -> list[int] | None:
    """Least-accumulated-load monotone path through ``inside``, or None.

    Monotone links drop the hop distance to ``dst`` by exactly one, so the
    DAG is layered and one pass per layer settles it.  A node keeps the
    smallest ``(weight, predecessor's weight, predecessor's path)`` offered
    to it, which is the label Dijkstra with ``(weight, path)`` heap entries
    gives it: predecessors pop in ``(weight, path)`` order and only a
    strictly smaller weight replaces a label, so among equal offers the
    predecessor that pops first wins.  The sums are formed in that order
    too, so the weights are the same floats.
    """
    to_dst = topology.distance_rows()[dst]
    adjacency = topology.adjacency()
    level = {src: (0.0, 0.0, ())}
    for closer in range(to_dst[src] - 1, -1, -1):
        offers: dict[int, tuple[float, float, tuple[int, ...]]] = {}
        for node, (weight, _, via) in level.items():
            path = via + (node,)
            for nxt in adjacency[node]:
                if to_dst[nxt] == closer and nxt in inside:
                    step = base_weight + link_loads.get((node, nxt), 0.0)
                    offer = (weight + step, weight, path)
                    known = offers.get(nxt)
                    if known is None or offer < known:
                        offers[nxt] = offer
        if not offers:
            return None
        level = offers
    return [*level[dst][2], dst]


def _quadrant_is_closed(topology: NoCTopology, src: int, dst: int) -> bool:
    """True when no step toward ``dst`` can leave the quadrant, so the sweep
    need not build its node set to test membership.

    That holds on a pristine fabric unless the two nodes sit exactly half a
    torus ring apart on some axis: there both directions approach ``dst``
    and the quadrant keeps only one.  On a degraded fabric a detour around a
    failed link can approach ``dst`` from outside the rectangle.
    """
    if topology.is_degraded:
        return False
    if not topology.torus:
        return True
    (sx, sy), (dx, dy) = topology.coords(src), topology.coords(dst)
    return 2 * abs(sx - dx) != topology.width and 2 * abs(sy - dy) != topology.height


def least_loaded_quadrant_path(
    topology: NoCTopology,
    src: int,
    dst: int,
    link_loads: dict[tuple[int, int], float],
    base_weight: float = 1.0,
) -> list[int]:
    """The least-loaded path over the monotone quadrant graph.

    Args:
        topology: the mesh/torus.
        src: source node; must differ from ``dst``.
        dst: destination node.
        link_loads: current accumulated load per directed link.
        base_weight: constant added to every link weight; keeps weights
            positive and makes the zero-load case deterministic.

    Returns:
        A minimum-hop node path whose total accumulated load is minimal;
        among equals, the one whose prefixes are lightest and then lowest
        in node ids.  On fault-degraded topologies, "minimum hop" means the
        surviving (BFS) hop distance, and the search widens from the
        quadrant to every node when a failed link leaves the quadrant
        without a monotone route: adjacent nodes differ by at most one hop,
        so every monotone path is minimal in the degraded fabric.
    """
    if src == dst:
        raise RoutingError("no path needed between a node and itself")
    inside: Collection[int] = (
        topology.nodes
        if _quadrant_is_closed(topology, src, dst)
        else set(quadrant_nodes(topology, src, dst))
    )
    path = _level_sweep(topology, inside, src, dst, link_loads, base_weight)
    if path is None and topology.is_degraded:
        # Pristine topologies never take this branch: their quadrant
        # always routes.
        path = _level_sweep(topology, topology.nodes, src, dst, link_loads, base_weight)
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
        A :class:`RoutingResult` with one explicit path per commodity,
        labelled ``"min-path"`` at the default ``base_weight``.  The
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
    # Only the default weight is "min-path": the routing a priced response reuses.
    algorithm = "min-path" if base_weight == 1.0 else f"min-path(base_weight={base_weight:g})"
    return RoutingResult.from_paths(topology, commodities, paths, algorithm=algorithm)


def is_min_path_routing_of(
    routing: RoutingResult | None, topology: NoCTopology, commodities: list[Commodity]
) -> bool:
    """True when ``routing`` is what ``min_path_routing(topology,
    commodities)`` returns: the default-weight router, on this very topology
    object, over equal commodities.  The one rule for reusing a routing that
    was already run (a mapper's ``MappingResult.routing``)."""
    return (
        routing is not None
        and routing.algorithm == "min-path"
        and routing.topology is topology
        and routing.commodities == commodities
    )
