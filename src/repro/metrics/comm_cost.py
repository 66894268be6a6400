"""Communication cost (Equation 7) and related delay proxies.

``commcost = sum_k vl(d_k) * dist(source(d_k), dest(d_k))`` where ``dist``
is the minimum hop count on the mesh.  Note the cost depends only on the
*mapping*, not on which minimum paths the router picks — routing affects
feasibility (Inequality 3), not this objective.  That property is what lets
NMAP pre-screen swap candidates cheaply (see PERFORMANCE.md).

The kernels are numpy gathers over the cached array views
(:meth:`CoreGraph.flow_arrays`, :meth:`CoreGraph.adjacency_arrays`,
:meth:`Mapping.position_arrays`, :meth:`NoCTopology.distance_matrix`).
Two searches keep state of their own beside a complete mapping:
:class:`SwapGains` is the gain table NMAP's swap scans gather whole rows of
deltas from, :class:`SwapMirror` holds the views as Python lists for the
annealer, which scores one move at a time.  The seed's scalar loops are
still here — :func:`comm_cost_reference`, which :func:`comm_cost` falls
back to on partial mappings, and the per-pair :func:`swap_cost_delta` —
and the property suite uses them as oracles.
Bandwidth labels in this repository are integer-valued (VOPD/MPEG tables,
rounded random graphs), so every product and sum is exact in float64 and
the vectorized and scalar forms agree bit for bit; see PERFORMANCE.md for
the argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: repro.mapping imports this module
    from repro.mapping.base import Mapping

#: Stand-in for the pseudo-code's ``maxvalue`` (cost of an infeasible mapping).
MAXVALUE = float("inf")


def comm_cost_reference(mapping: Mapping) -> float:
    """Equation 7 for a complete mapping — the scalar reference loop.

    Raises:
        repro.errors.MappingError: via :meth:`Mapping.node_of` when a flow
            endpoint is unmapped.
    """
    topology = mapping.topology
    total = 0.0
    for flow in mapping.core_graph.flows():
        total += flow.bandwidth * topology.distance(
            mapping.node_of(flow.src), mapping.node_of(flow.dst)
        )
    return total


def comm_cost(mapping: Mapping) -> float:
    """Equation 7 for a complete mapping.

    One gather over the cached hop-distance matrix; falls back to
    :func:`comm_cost_reference` (and its exact error behaviour) on partial
    mappings.

    Raises:
        repro.errors.MappingError: via :meth:`Mapping.node_of` when a flow
            endpoint is unmapped.
    """
    src, dst, bw = mapping.core_graph.flow_arrays()
    if src.size == 0:
        return 0.0
    positions, _ = mapping.position_arrays()
    src_nodes = positions[src]
    dst_nodes = positions[dst]
    if src_nodes.min() < 0 or dst_nodes.min() < 0:
        return comm_cost_reference(mapping)
    distances = mapping.topology.distance_matrix()
    return float(bw @ distances[src_nodes, dst_nodes])


def average_hop_count(mapping: Mapping) -> float:
    """Bandwidth-weighted mean hop distance — the paper's "average delay".

    Equals ``comm_cost / total_bandwidth``; 0.0 for a graph without flows.
    """
    total_bw = mapping.core_graph.total_bandwidth()
    if total_bw == 0:
        return 0.0
    return comm_cost(mapping) / total_bw


def swap_cost_delta(mapping: Mapping, node_a: int, node_b: int) -> float:
    """Exact change in Equation 7 if the contents of two nodes were swapped.

    Only flows incident to the affected cores change, so this is
    ``O(deg(a) + deg(b))`` instead of ``O(|E|)``.  This is the scalar form:
    it tolerates partial mappings, and the property suite holds the
    production kernels (:meth:`SwapGains.deltas`, :meth:`SwapMirror.delta`)
    to it.
    """
    topology = mapping.topology
    graph = mapping.core_graph
    core_a = mapping.core_at(node_a)
    core_b = mapping.core_at(node_b)
    moved = {}
    if core_a is not None:
        moved[core_a] = node_b
    if core_b is not None:
        moved[core_b] = node_a
    if not moved:
        return 0.0

    def located(core: str) -> int:
        return moved.get(core, mapping.node_of(core))

    delta = 0.0
    seen_pairs: set[tuple[str, str]] = set()
    for core in moved:
        for other in graph.neighbors(core):
            pair = (core, other) if core <= other else (other, core)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            bandwidth = graph.traffic_between(core, other)
            old = topology.distance(mapping.node_of(core), mapping.node_of(other))
            new = topology.distance(located(core), located(other))
            delta += bandwidth * (new - old)
    return delta


class SwapGains:
    """The 2-exchange gain table of a complete mapping: every swap delta of
    a node against any set of partners in five gathers.

    For current cores ``ca`` on ``node_a`` and ``cb`` on ``b`` (either
    possibly empty) the delta decomposes as::

        delta(a, b) = S(ca, a, b) + S(cb, b, a) + 2 * w(ca, cb) * D[a, b]

    where ``S(c, u, v) = gains[c, v] - gains[c, u]`` is the cost change of
    moving core ``c`` from node ``u`` to ``v`` with all its neighbors
    pinned, and the last term cancels the double-counted ``ca``–``cb`` edge
    (their mutual distance is unchanged by the swap).

    Attributes:
        gains: ``(C + 1, N)`` float64; ``gains[c, v]`` is the cost of core
            ``c`` sitting on node ``v`` with its neighbors where they are,
            ``sum_x w(c, x) * D[pos(x), v]``.  The last row is all zero, so
            an empty node (``node_core == -1``) gathers zeros.
        weights: the dense ``(C + 1, C + 1)`` undirected traffic matrix,
            with the same zero row and column for "no core".

    Raises:
        repro.errors.MappingError: when the mapping is not complete.
    """

    def __init__(self, mapping: Mapping) -> None:
        mapping.validate()
        self.mapping = mapping
        self.distances = mapping.topology.distance_matrix().astype(np.float64)
        indptr, nbr_idx, nbr_wt = mapping.core_graph.adjacency_arrays()
        positions, _ = mapping.position_arrays()
        degrees = np.diff(indptr)
        size = degrees.size + 1
        self.weights = np.zeros((size, size), dtype=np.float64)
        self.weights[np.repeat(np.arange(degrees.size), degrees), nbr_idx] = nbr_wt
        self.gains = np.zeros((size, self.distances.shape[0]), dtype=np.float64)
        # A segment sum over the (E, N) block of weighted hop rows, one
        # segment per core with neighbors — not ``weights @ distances``:
        # BLAS starts threads past a size threshold, and on a small host
        # two 121 x 121 matrices multiply 500x slower than two 100 x 100.
        connected = np.flatnonzero(degrees)
        if connected.size:
            terms = nbr_wt[:, None] * self.distances[positions[nbr_idx]]
            self.gains[connected] = np.add.reduceat(terms, indptr[connected])

    def deltas(self, node_a: int, nodes: "np.ndarray | list[int]") -> np.ndarray:
        """:func:`swap_cost_delta` of ``node_a`` against each of ``nodes``.

        Returns:
            ``float64`` array of deltas, one per node, in the given order.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        _, node_core = self.mapping.position_arrays()
        core_a = node_core[node_a]
        cores = node_core[nodes]
        gains = self.gains
        return (
            gains[core_a, nodes]
            - gains[core_a, node_a]
            + gains[cores, node_a]
            - gains[cores, nodes]
            + 2.0 * self.weights[core_a, cores] * self.distances[node_a, nodes]
        )

    def swap(self, node_a: int, node_b: int) -> None:
        """Commit the swap to the mapping and to the table.

        Only the rows of the two moved cores' neighbors change: each sees
        that core's hop row move from one node's to the other's (every
        other row's weight factor is zero).
        """
        _, node_core = self.mapping.position_arrays()
        core_a, core_b = node_core[[node_a, node_b]]
        self.mapping.swap_nodes(node_a, node_b)
        shift = self.distances[node_b] - self.distances[node_a]
        self.gains += np.outer(self.weights[core_a] - self.weights[core_b], shift)


def placement_costs(
    mapping: Mapping, core: str, candidates: np.ndarray | list[int]
) -> np.ndarray:
    """Equation-7 cost of putting unmapped ``core`` on *each* candidate node.

    Only the core's already-placed neighbors pull (a row of
    :class:`SwapGains` over a partial mapping): one
    ``(candidates, placed neighbors)`` block of the distance matrix times
    the neighbor weights — the ``commcost(u_j)`` scan of ``initialize()``
    and of every constructive baseline.  Which candidates are offered and
    how ties break is the caller's business.

    Returns:
        ``float64`` array of costs, one per candidate, in candidate order.
    """
    nodes = np.asarray(candidates, dtype=np.int64)
    indptr, nbr_idx, nbr_wt = mapping.core_graph.adjacency_arrays()
    positions, _ = mapping.position_arrays()
    index = mapping.core_graph.core_index()[core]
    row = slice(indptr[index], indptr[index + 1])
    nbr_pos = positions[nbr_idx[row]]
    placed = nbr_pos >= 0
    distances = mapping.topology.distance_matrix()
    return distances[nodes[:, None], nbr_pos[placed]] @ nbr_wt[row][placed]


class SwapMirror:
    """A complete mapping mirrored into Python lists, for one-move-at-a-time
    searches (the annealer): at ``O(deg)`` work per move, list reads beat
    both numpy dispatch and the name-keyed :func:`swap_cost_delta`.

    Attributes:
        adjacency: per core index, its ``(neighbor index, weight)`` pairs.
        hops: the hop-distance matrix as a list of rows.
        position: core index -> node.
        node_core: node -> core index, -1 when empty.

    Raises:
        repro.errors.MappingError: when the mapping is not complete.
    """

    def __init__(self, mapping: Mapping) -> None:
        mapping.validate()
        indptr, nbr_idx, nbr_wt = mapping.core_graph.adjacency_arrays()
        bounds = indptr.tolist()
        pairs = list(zip(nbr_idx.tolist(), nbr_wt.tolist()))
        self.mapping = mapping
        self.adjacency = [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.hops = mapping.topology.distance_rows()
        self.position, self.node_core = (
            view.tolist() for view in mapping.position_arrays()
        )

    def delta(self, node_a: int, node_b: int) -> float:
        """:func:`swap_cost_delta` of the two nodes' contents.

        Each moved core's neighbors are re-priced from its old row of the
        hop table to its new one; the edge between the two moved cores is
        skipped, since a swap leaves their distance unchanged.
        """
        core_a, core_b = self.node_core[node_a], self.node_core[node_b]
        from_a, from_b = self.hops[node_a], self.hops[node_b]
        position = self.position
        delta = 0.0
        if core_a >= 0:
            for other, weight in self.adjacency[core_a]:
                if other != core_b:
                    at = position[other]
                    delta += weight * (from_b[at] - from_a[at])
        if core_b >= 0:
            for other, weight in self.adjacency[core_b]:
                if other != core_a:
                    at = position[other]
                    delta += weight * (from_a[at] - from_b[at])
        return delta

    def swap(self, node_a: int, node_b: int) -> None:
        """Commit the swap to the mapping and to the mirror."""
        self.mapping.swap_nodes(node_a, node_b)
        core_a, core_b = self.node_core[node_a], self.node_core[node_b]
        self.node_core[node_a], self.node_core[node_b] = core_b, core_a
        if core_a >= 0:
            self.position[core_a] = node_b
        if core_b >= 0:
            self.position[core_b] = node_a
