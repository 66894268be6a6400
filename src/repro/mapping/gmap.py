"""GMAP: the greedy mapping of Hu–Marculescu (used for their UBC bound).

Reimplementation of the greedy algorithm the paper benchmarks as "GMAP —
the algorithm for UBC calculation in [8]": cores are taken in descending
order of total communication volume (a static order, unlike NMAP's
``initialize()`` which re-ranks by attachment to the mapped set) and each is
placed on the free node minimizing the incremental hop-weighted cost to the
cores already placed — ``initialize()``'s own node scan and tie-break.  No
improvement phase follows — that absence is what Figures 3 and 4 measure.
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.api.options import GmapOptions
from repro.api.registry import register_mapper
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult
from repro.mapping.initializer import best_node, center_pull
from repro.mapping.nmap import evaluate_single_path


@register_mapper("gmap", options=GmapOptions,
                 summary="Greedy mapping baseline (Hu-Marculescu UBC)")
def gmap(core_graph: CoreGraph, topology: NoCTopology) -> MappingResult:
    """Run the greedy baseline.

    Returns:
        :class:`MappingResult` priced with the same single-minimum-path
        routing used for NMAP, so Figure 3/4 comparisons are apples to
        apples.
    """
    if core_graph.num_cores == 0:
        raise MappingError("cannot map an empty core graph")
    mapping = Mapping(core_graph, topology)
    pull = center_pull(topology)
    for core in core_graph.traffic_order():
        mapping.assign(core, best_node(mapping, core, mapping.free_nodes(), pull))

    cost, routing, feasible = evaluate_single_path(mapping)
    return MappingResult(
        mapping=mapping,
        comm_cost=cost,
        feasible=feasible,
        algorithm="gmap",
        routing=routing,
    )
