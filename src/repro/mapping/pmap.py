"""PMAP: two-phase physical mapping of clustered task graphs (Koziris et al.).

Reimplementation of the EuroPDP 2000 algorithm the paper benchmarks.  PMAP
maps clusters (here: cores, since the paper feeds core graphs directly) onto
processors in two phases:

1. *Selection order*: clusters are ordered by their total communication
   with the already-selected set, seeded by the heaviest cluster — a
   max-adjacency ordering (:meth:`CoreGraph.max_adjacency_order`, the order
   NMAP's ``initialize()`` uses too).
2. *Physical placement*: each selected cluster is placed on a free
   processor chosen from the *frontier* — processors adjacent to already
   used ones — minimizing hop-weighted communication to the placed
   clusters.  The seed goes to a corner, and placement grows a contiguous
   region outward (nearest-neighbor expansion).

The frontier restriction is the characteristic difference from GMAP/NMAP's
global node scans and is why PMAP trails them on meshes: a locally adjacent
node is not always the globally best one.
"""

from __future__ import annotations

from repro.api.options import PmapOptions
from repro.api.registry import register_mapper
from repro.errors import MappingError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult
from repro.mapping.initializer import best_node
from repro.mapping.nmap import evaluate_single_path


@register_mapper("pmap", options=PmapOptions,
                 summary="Two-phase frontier placement baseline (Koziris et al.)")
def pmap(core_graph: CoreGraph, topology: NoCTopology) -> MappingResult:
    """Run the PMAP baseline.

    Returns:
        :class:`MappingResult` priced with single-minimum-path routing.
    """
    if core_graph.num_cores == 0:
        raise MappingError("cannot map an empty core graph")
    mapping = Mapping(core_graph, topology)
    frontier: set[int] = set()  # free nodes adjacent to a used one
    for core in core_graph.max_adjacency_order():
        # The seed finds no frontier and nothing pulling on it, so it takes
        # the first free node: corner (0, 0), or the lowest-id node whose
        # router works.
        node = best_node(mapping, core, sorted(frontier) or mapping.free_nodes())
        mapping.assign(core, node)
        frontier.discard(node)
        frontier.update(
            neighbor
            for neighbor in topology.neighbors(node)
            if mapping.core_at(neighbor) is None
        )

    cost, routing, feasible = evaluate_single_path(mapping)
    return MappingResult(
        mapping=mapping,
        comm_cost=cost,
        feasible=feasible,
        algorithm="pmap",
        routing=routing,
    )
