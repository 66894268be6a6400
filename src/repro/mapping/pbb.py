"""PBB: partial branch-and-bound mapping (Hu–Marculescu, ASP-DAC 2003).

Branch-and-bound over partial assignments: cores are branched in descending
total-traffic order, and tree level ``d`` assigns core ``d`` to one of the
free mesh nodes.  Each tree node carries a lower bound on the final
Equation 7 cost:

* the exact cost of flows between already-placed cores (maintained
  incrementally), plus
* for each flow between a placed and an unplaced core, the flow value times
  the distance from the placed node to the nearest free node (``tight``
  mode) or one hop (``cheap`` mode), plus
* one hop per flow between two unplaced cores.

Only the first term depends on where a child puts the core being branched:
"nearest free" is taken over the partial's free nodes, the child's own
among them, and a flow leaving the new core is priced at one hop.  So the
last two terms are one tail per partial, shared by its children, and a
whole tree level is branched, bounded and pruned at once as arrays.

The "partial" in PBB is the bounded queue: the paper monitors the queue
length so their runs take "few minutes".  We implement the queue bound as a
level-synchronous best-bound search — at every depth only the ``max_queue``
lowest-bound partials survive.  This keeps runtime predictable (the knob the
paper tunes) while remaining exact whenever the queue never overflows.
Mesh mirror symmetries are broken at the root level.
"""

from __future__ import annotations

import numpy as np

from repro.api.options import PbbOptions
from repro.api.registry import register_mapper
from repro.errors import MappingError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult, require_capacity
from repro.mapping.nmap import evaluate_single_path


def _root_nodes(topology: NoCTopology) -> list[int]:
    """One node per mirror-symmetry class (root-level symmetry breaking).

    A failed router breaks the mirror symmetries, so on such a fabric every
    surviving node is a class of its own.
    """
    if topology.failed_routers:
        return topology.healthy_nodes()
    if topology.torus:
        # A torus is vertex-transitive: a single root suffices.
        return [0]
    return [
        node
        for node in topology.nodes
        if node % topology.width <= (topology.width - 1) / 2
        and node // topology.width <= (topology.height - 1) / 2
    ]


@register_mapper("pbb", options=PbbOptions,
                 summary="Partial branch-and-bound baseline (Hu-Marculescu)")
def pbb(
    core_graph: CoreGraph,
    topology: NoCTopology,
    max_queue: int = 2000,
    tight_bounds: bool | None = None,
) -> MappingResult:
    """Run the partial branch-and-bound baseline.

    Args:
        core_graph: application graph.
        topology: NoC graph.
        max_queue: surviving partial assignments per tree level; the paper's
            runtime knob (they size it for minutes, the Table 2 bench for
            seconds).
        tight_bounds: use nearest-free-node bounds (slower, prunes more).
            Defaults to True for graphs of at most 20 cores.

    Returns:
        :class:`MappingResult` priced with single-minimum-path routing.
    """
    if core_graph.num_cores == 0:
        raise MappingError("cannot map an empty core graph")
    if max_queue < 1:
        raise MappingError(f"max_queue must be >= 1, got {max_queue}")
    if tight_bounds is None:
        tight_bounds = core_graph.num_cores <= 20
    require_capacity(core_graph, topology)

    order = core_graph.traffic_order()
    core_rank = {core: rank for rank, core in enumerate(order)}

    # Undirected-collapsed flows keyed by their later-placed endpoint, so the
    # incremental cost of placing core ``hi`` scans only its earlier links.
    flows: list[tuple[int, int, float]] = []
    for pair, bandwidth in core_graph.undirected_weights().items():
        lo, hi = sorted(pair, key=lambda core: core_rank[core])
        flows.append((core_rank[lo], core_rank[hi], bandwidth))
    earlier_links: dict[int, list[tuple[int, float]]] = {}
    for lo, hi, bandwidth in flows:
        earlier_links.setdefault(hi, []).append((lo, bandwidth))

    # The bound's tail at each depth, over the flows still open there
    # (``hi > depth``).  Those anchored on a placed core (``lo < depth``) are
    # summed per anchor for the tight bound's nearest-free-node term; every
    # other open flow — and, under the cheap bound, the anchored ones too —
    # is charged one hop.
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

    hops = topology.distance_matrix()
    healthy = np.zeros(topology.num_nodes, dtype=bool)
    healthy[topology.healthy_nodes()] = True
    # A level: rows of placed nodes in lexicographic order, and exact costs.
    # Children keep that order (parent row, then node), so an index breaks a
    # (bound, exact) tie as the tuple would; sums run in a loop's term order.
    level = np.array(_root_nodes(topology))[:, None]
    exact = np.zeros(len(level))
    expansions, overflowed = 0, False
    for depth in range(1, len(order)):
        expansions += len(level)
        free_mask = np.tile(healthy, (len(level), 1))
        np.put_along_axis(free_mask, level, False, axis=1)
        free = free_mask.nonzero()[1].reshape(len(level), -1)
        tail = np.full(len(level), one_hop[depth])
        for lo, bandwidth in anchored[depth].items():
            tail += bandwidth * hops[level[:, lo, None], free].min(axis=1)
        pulled = np.zeros(free.shape)
        for lo, bandwidth in earlier_links.get(depth, []):
            pulled += bandwidth * hops[level[:, lo, None], free]
        exact = (exact[:, None] + pulled).ravel()
        bound = exact + tail.repeat(free.shape[1])
        parent, node = np.arange(len(level)).repeat(free.shape[1]), free.ravel()
        if len(node) > max_queue:
            # The least (bound, exact, index) children; the cut pre-selects.
            overflowed = True
            cut = np.partition(bound, max_queue - 1)[max_queue - 1]
            near = (bound <= cut).nonzero()[0]
            keep = np.sort(near[np.lexsort((exact[near], bound[near]))[:max_queue]])
            parent, node, exact = parent[keep], node[keep], exact[keep]
        level = np.column_stack((level[parent], node))

    best = level[exact.argmin()].tolist()
    mapping = Mapping(core_graph, topology, dict(zip(order, best)))
    cost, routing, feasible = evaluate_single_path(mapping)
    return MappingResult(
        mapping=mapping,
        comm_cost=cost,
        feasible=feasible,
        algorithm="pbb",
        routing=routing,
        stats={
            "expansions": expansions,
            "queue_overflowed": overflowed,
            "max_queue": max_queue,
            "tight_bounds": tight_bounds,
        },
    )
