"""Minimum uniform link bandwidth required by a mapping (Figure 4's metric).

With uniform link capacities, the smallest capacity that satisfies
Inequality 3 equals the maximum aggregate link load produced by the routing
discipline.  Deterministic routers (XY, the quadrant heuristic) give it
directly; for split traffic it is the min-congestion LP's optimum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graphs.commodities import build_commodities
from repro.routing.base import RoutingResult
from repro.routing.dimension_ordered import xy_routing
from repro.routing.min_path import min_path_routing
from repro.routing.split import solve_min_congestion

if TYPE_CHECKING:  # annotations only: repro.mapping imports repro.metrics
    from repro.mapping.base import Mapping


def min_bandwidth_xy(mapping: Mapping) -> tuple[float, RoutingResult]:
    """Min uniform capacity under dimension-ordered routing (DPMAP/DGMAP)."""
    commodities = build_commodities(mapping.core_graph, mapping)
    routing = xy_routing(mapping.topology, commodities)
    return routing.max_link_load(), routing


def min_bandwidth_min_path(
    mapping: Mapping, routed: RoutingResult | None = None
) -> tuple[float, RoutingResult]:
    """Min uniform capacity under the load-balancing quadrant heuristic.

    Args:
        routed: a routing already run (a mapper's ``MappingResult.routing``);
            reused when it is this mapping's min-path routing — same
            topology, same commodities — and routed afresh otherwise.
    """
    commodities = build_commodities(mapping.core_graph, mapping)
    if (
        routed is not None
        and routed.algorithm == "min-path"
        and routed.topology is mapping.topology
        and routed.commodities == commodities
    ):
        routing = routed
    else:
        routing = min_path_routing(mapping.topology, commodities)
    return routing.max_link_load(), routing


def min_bandwidth_split(
    mapping: Mapping, quadrant_only: bool = False
) -> tuple[float, RoutingResult]:
    """Min uniform capacity with traffic splitting (NMAPTM/NMAPTA).

    Solves only the min-congestion LP's first phase, whose objective is λ*:
    the routing is one λ*-optimal split, not the flow-minimal pattern
    :func:`solve_min_congestion`'s second phase picks.

    Args:
        quadrant_only: True restricts each commodity to its minimum paths
            (NMAPTM, Equation 10); False allows all paths (NMAPTA).
    """
    commodities = build_commodities(mapping.core_graph, mapping)
    return solve_min_congestion(
        mapping.topology, commodities, quadrant_only, minimize_flow_secondary=False
    )


def link_utilizations(routing: RoutingResult) -> dict[tuple[int, int], float]:
    """Load / capacity per directed link under the topology's capacities."""
    topology = routing.topology
    return {
        link: load / topology.link_bandwidth(*link)
        for link, load in routing.link_loads().items()
    }
