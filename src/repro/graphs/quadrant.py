"""Quadrant subgraphs ``Q(d_k)`` used by minimum-path routing.

Every shortest path between two mesh nodes lies inside the axis-aligned
rectangle ("quadrant" in the paper) spanned by source and destination.  The
``shortestpath()`` routine builds this quadrant graph per commodity and runs
Dijkstra inside it; NMAPTM restricts split traffic to the same region.

For tori the quadrant follows, per axis, the shorter wrap direction (ties
resolved toward the non-wrapping direction), which preserves the property
that all quadrant-monotone paths are minimal.
"""

from __future__ import annotations

from repro.errors import GraphError
from repro.graphs.topology import NoCTopology


def _axis_steps(src: int, dst: int, size: int, torus: bool) -> tuple[int, int]:
    """Signed per-axis step direction and hop count from ``src`` to ``dst``.

    Returns ``(step, count)`` where ``step`` is -1, 0 or +1 in wrap-aware
    coordinates and ``count`` the number of hops along this axis.
    """
    if src == dst:
        return (0, 0)
    direct = dst - src
    if not torus:
        return (1 if direct > 0 else -1, abs(direct))
    forward = (dst - src) % size
    backward = (src - dst) % size
    if forward <= backward:
        return (1, forward)
    return (-1, backward)


def _axis_positions(src: int, step: int, count: int, size: int) -> list[int]:
    """All coordinates visited along one axis, wrap-aware."""
    return [(src + step * offset) % size for offset in range(count + 1)]


def quadrant_nodes(topology: NoCTopology, src: int, dst: int) -> list[int]:
    """All nodes inside the quadrant between ``src`` and ``dst``.

    For a mesh this is the axis-aligned bounding rectangle; for a torus the
    rectangle follows the minimal wrap direction on each axis.
    """
    sx, sy = topology.coords(src)
    dx, dy = topology.coords(dst)
    step_x, count_x = _axis_steps(sx, dx, topology.width, topology.torus)
    step_y, count_y = _axis_steps(sy, dy, topology.height, topology.torus)
    xs = _axis_positions(sx, step_x, count_x, topology.width)
    ys = _axis_positions(sy, step_y, count_y, topology.height)
    return [y * topology.width + x for y in ys for x in xs]  # in range by construction


def quadrant_links(
    topology: NoCTopology,
    src: int,
    dst: int,
    monotone: bool = False,
) -> list[tuple[int, int]]:
    """Directed links whose endpoints both lie inside the quadrant.

    Args:
        topology: the mesh/torus.
        src: commodity source node.
        dst: commodity destination node.
        monotone: when True, keep only links pointing *toward* the
            destination (strictly decreasing hop distance).  Every directed
            path from ``src`` to ``dst`` made of monotone quadrant links is a
            minimum path, which is exactly the NMAPTM path set.

    Returns:
        Link ``(u, v)`` pairs in the topology's stable link order.
    """
    if src == dst:
        raise GraphError("quadrant of a node with itself is empty")
    inside = set(quadrant_nodes(topology, src, dst))
    to_dst = topology.distance_rows()[dst]
    adjacency = topology.adjacency()
    # Ascending sources, each one's links in adjacency order, is the order
    # link_keys() lists them in — without a pass over the whole fabric.
    return [
        (u, v)
        for u in sorted(inside)
        for v in adjacency[u]
        if v in inside and not (monotone and to_dst[v] >= to_dst[u])
    ]


def count_minimal_paths(topology: NoCTopology, src: int, dst: int) -> int:
    """Number of distinct minimum-hop paths between two nodes.

    Computed by dynamic programming over the monotone quadrant DAG; used by
    tests and by the exact ILP router to bound path enumeration.
    """
    if src == dst:
        return 1
    links = quadrant_links(topology, src, dst, monotone=True)
    incoming: dict[int, list[int]] = {}
    for u, v in links:
        incoming.setdefault(v, []).append(u)
    order = sorted(
        set(quadrant_nodes(topology, src, dst)),
        key=lambda node: -topology.distance(node, dst),
    )
    ways = {src: 1}
    for node in order:
        if node == src:
            continue
        ways[node] = sum(ways.get(parent, 0) for parent in incoming.get(node, []))
    return ways.get(dst, 0)


def enumerate_minimal_paths(
    topology: NoCTopology, src: int, dst: int, limit: int = 1000
) -> list[list[int]]:
    """Enumerate every minimum-hop path from ``src`` to ``dst`` as node lists.

    Args:
        limit: raise :class:`GraphError` if more than this many paths exist
            (guards the exact ILP router against combinatorial blow-up).
    """
    if src == dst:
        return [[src]]
    total = count_minimal_paths(topology, src, dst)
    if total > limit:
        raise GraphError(
            f"{total} minimal paths between {src} and {dst} exceed limit {limit}"
        )
    monotone = set(quadrant_links(topology, src, dst, monotone=True))
    outgoing: dict[int, list[int]] = {}
    for u, v in monotone:
        outgoing.setdefault(u, []).append(v)
    paths: list[list[int]] = []
    stack: list[list[int]] = [[src]]
    while stack:
        path = stack.pop()
        tail = path[-1]
        if tail == dst:
            paths.append(path)
            continue
        for nxt in outgoing.get(tail, []):
            stack.append(path + [nxt])
    paths.sort()
    return paths
