"""Deadlock analysis via channel dependency graphs (Dally & Seitz).

Wormhole routing deadlocks exactly when the *channel dependency graph*
(CDG) — a node per directed link, an edge whenever some route uses one link
immediately after another — contains a cycle.  The paper side-steps the
issue by simulating; this module makes the property checkable:

* XY routing is provably acyclic (the classical result) — asserted in
  tests;
* the quadrant min-path heuristic and LP-split routings are *not*
  guaranteed acyclic, so :func:`find_cycle` lets users audit a routing
  before committing it to silicon, and :func:`is_deadlock_free` gates the
  simulator's riskier configurations.

The analysis is conservative for split routing: every decomposed path of a
commodity contributes its dependencies, as each may be taken by some
packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.routing.base import LinkKey, RoutingResult, path_links
from repro.routing.tables import build_routing_tables

if TYPE_CHECKING:
    import networkx as nx


def channel_dependency_graph(routing: RoutingResult) -> nx.DiGraph:
    """Build the CDG of a routing result.

    Nodes are directed physical links ``(u, v)``; an edge
    ``(a, b) -> (b, c)`` means some packet may hold link ``(a, b)`` while
    requesting ``(b, c)``.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for link in routing.topology.link_keys():
        graph.add_node(link)

    def add_path_dependencies(path: list[int]) -> None:
        links = path_links(path)
        for held, wanted in zip(links, links[1:]):
            graph.add_edge(held, wanted)

    if routing.paths is not None:
        for path in routing.paths.values():
            add_path_dependencies(path)
        return graph

    # Fractional flows: dependencies follow the per-node next-hop tables —
    # a packet of commodity k holding (a, b) may request any (b, c) that
    # the table at b lists for k.
    tables = build_routing_tables(routing)
    for commodity in routing.commodities:
        for (a, b) in routing.flows.get(commodity.index, {}):
            for c, _weight in tables[b].next_hops(commodity.index):
                graph.add_edge((a, b), (b, c))
    return graph


def find_cycle(routing: RoutingResult) -> list[LinkKey] | None:
    """A channel-dependency cycle if one exists, else None.

    The returned list is the cycle's links in order (last depends on
    first) — directly actionable when debugging a deadlock report from the
    simulator.
    """
    import networkx as nx

    graph = channel_dependency_graph(routing)
    try:
        cycle_edges = nx.find_cycle(graph, orientation="original")
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in cycle_edges]


def is_deadlock_free(routing: RoutingResult) -> bool:
    """True when the routing's CDG is acyclic (sufficient for wormhole)."""
    return find_cycle(routing) is None


def count_dependencies(routing: RoutingResult) -> int:
    """Number of CDG edges — a complexity measure of the routing."""
    return channel_dependency_graph(routing).number_of_edges()
