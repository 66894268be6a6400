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

from typing import TYPE_CHECKING, Iterator

from repro.routing.base import LinkKey, RoutingResult, path_links
from repro.routing.tables import build_routing_tables

if TYPE_CHECKING:
    import networkx as nx


def _dependencies(routing: RoutingResult) -> Iterator[tuple[LinkKey, LinkKey]]:
    """Every CDG edge ``(held, wanted)``, in the order the routing yields
    them (repeats included): ``(a, b) -> (b, c)`` means some packet may hold
    link ``(a, b)`` while requesting ``(b, c)``."""
    if routing.paths is not None:
        for path in routing.paths.values():
            links = path_links(path)
            yield from zip(links, links[1:])
        return
    # Fractional flows: dependencies follow the per-node next-hop tables —
    # a packet of commodity k holding (a, b) may request any (b, c) that
    # the table at b lists for k.
    tables = build_routing_tables(routing)
    for commodity in routing.commodities:
        for (a, b) in routing.flows.get(commodity.index, {}):
            for c, _weight in tables[b].next_hops(commodity.index):
                yield (a, b), (b, c)


def _successors(routing: RoutingResult) -> dict[LinkKey, dict[LinkKey, None]]:
    """The CDG as an adjacency of insertion-ordered dicts: the node order and
    per-node successor order of :func:`channel_dependency_graph`'s DiGraph."""
    successors: dict[LinkKey, dict[LinkKey, None]] = {
        link: {} for link in routing.topology.link_keys()
    }
    for held, wanted in _dependencies(routing):
        successors.setdefault(held, {})[wanted] = None
        successors.setdefault(wanted, {})
    return successors


def channel_dependency_graph(routing: RoutingResult) -> nx.DiGraph:
    """Build the CDG of a routing result as a :class:`networkx.DiGraph`.

    Nodes are directed physical links ``(u, v)``; an edge
    ``(a, b) -> (b, c)`` means some packet may hold link ``(a, b)`` while
    requesting ``(b, c)``.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(routing.topology.link_keys())
    graph.add_edges_from(_dependencies(routing))
    return graph


def find_cycle(routing: RoutingResult) -> list[LinkKey] | None:
    """A channel-dependency cycle if one exists, else None.

    The returned list is the cycle's links in order (last depends on
    first) — directly actionable when debugging a deadlock report from the
    simulator.  It is the cycle ``networkx.find_cycle(
    channel_dependency_graph(routing), orientation="original")`` names: the
    same edge-by-edge depth-first search from each unexplored node in turn,
    which never descends into an explored node (everything reachable from
    one is explored, so networkx skips every edge it would find there).
    """
    successors = _successors(routing)
    explored: set[LinkKey] = set()
    for start in successors:
        if start in explored:
            continue
        pending = {start: iter(successors[start])}
        stack = [start]
        edges: list[tuple[LinkKey, LinkKey]] = []  # the active path
        seen, active = {start}, {start}
        previous_head = None
        while stack:
            tail = stack[-1]
            head = next(pending[tail], None)
            if head is None:
                stack.pop()
                continue
            if head in explored:
                continue
            if head not in pending:
                pending[head] = iter(successors[head])
            stack.append(head)
            if previous_head is not None and tail != previous_head:
                # Backtracked: drop the path's edges down to one ending at tail.
                while edges:
                    active.remove(edges.pop()[1])
                    if edges and edges[-1][1] == tail:
                        break
                else:
                    active = {tail}
            edges.append((tail, head))
            if head in active:
                first = next(i for i, (link, _) in enumerate(edges) if link == head)
                return [link for link, _ in edges[first:]]
            seen.add(head)
            active.add(head)
            previous_head = head
        explored |= seen
    return None


def is_deadlock_free(routing: RoutingResult) -> bool:
    """True when the routing's CDG is acyclic (sufficient for wormhole)."""
    return find_cycle(routing) is None


def count_dependencies(routing: RoutingResult) -> int:
    """Number of CDG edges — a complexity measure of the routing."""
    return sum(len(wanted) for wanted in _successors(routing).values())
