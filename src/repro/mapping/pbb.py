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

The "partial" in PBB is the bounded queue: the paper monitors the queue
length so their runs take "few minutes".  We implement the queue bound as a
level-synchronous best-bound search — at every depth only the ``max_queue``
lowest-bound partials survive.  This keeps runtime predictable (the knob the
paper tunes) while remaining exact whenever the queue never overflows.
Mesh mirror symmetries are broken at the root level.
"""

from __future__ import annotations

import heapq

from repro.api.options import PbbOptions
from repro.api.registry import register_mapper
from repro.errors import MappingError
from repro.graphs.commodities import build_commodities
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult
from repro.metrics.comm_cost import MAXVALUE, comm_cost
from repro.routing.min_path import min_path_routing


def _symmetry_nodes(topology: NoCTopology) -> list[int]:
    """One node per mirror-symmetry class (root-level symmetry breaking)."""
    result = []
    for node in topology.nodes:
        x, y = topology.coords(node)
        if topology.torus:
            # A torus is vertex-transitive: a single root suffices.
            return [0]
        if x <= (topology.width - 1) / 2 and y <= (topology.height - 1) / 2:
            result.append(node)
    return result


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

    order = sorted(
        core_graph.cores,
        key=lambda core: (-core_graph.core_traffic(core), core_graph.cores.index(core)),
    )
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

    # Remainder term of the cheap bound: flows not yet chargeable exactly.
    cheap_tail = [0.0] * (len(order) + 1)
    for depth in range(len(order) + 1):
        cheap_tail[depth] = sum(bw for lo, hi, bw in flows if hi >= depth)

    # level entries: (exact_cost, assignment tuple)
    level: list[tuple[float, tuple[int, ...]]] = [
        (0.0, (node,)) for node in _symmetry_nodes(topology)
    ]
    expansions = 0
    overflowed = False
    for depth in range(1, len(order)):
        children: list[tuple[float, float, tuple[int, ...]]] = []
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
                    child_used = used | {node}
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

    best_exact, best_assignment = min(level)
    mapping = Mapping(
        core_graph,
        topology,
        {core: best_assignment[rank] for rank, core in enumerate(order)},
    )
    commodities = build_commodities(core_graph, mapping)
    routing = min_path_routing(topology, commodities)
    feasible = routing.is_feasible()
    return MappingResult(
        mapping=mapping,
        comm_cost=comm_cost(mapping) if feasible else MAXVALUE,
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
