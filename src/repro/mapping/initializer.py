"""The ``initialize()`` routine (§5): constructive seed mapping.

1. The core with the maximum communication demand goes onto a mesh node with
   the maximum number of neighbors.
2. Repeatedly, the unmapped core communicating most with the already-mapped
   set (:meth:`CoreGraph.max_adjacency_order`) is placed on the free node
   minimizing ``sum over mapped cores of comm(core, mapped) * hop_distance``.

All ties are broken deterministically (lowest node id / first core in graph
order) so runs are reproducible.  Among maximum-degree nodes we prefer the
one closest to the mesh center, matching the intuition that the seed core
should have room to grow in all directions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping
from repro.metrics.comm_cost import placement_costs


def center_pull(topology: NoCTopology) -> np.ndarray:
    """Per node, its Manhattan distance to the mesh center."""
    ids = np.arange(topology.num_nodes)
    return np.abs(ids % topology.width - (topology.width - 1) / 2.0) + np.abs(
        ids // topology.width - (topology.height - 1) / 2.0
    )


def best_node(
    mapping: Mapping, core: str, candidates: list[int], pull: np.ndarray | None = None
) -> int:
    """The candidate node (ascending ids) where placing ``core`` costs least.

    The pseudo-code's ``commcost(u_j) += comm(next_s, w_i) * (xdist + ydist)``
    scan, as one :func:`~repro.metrics.comm_cost.placement_costs` call — over
    the free nodes for ``initialize()`` and GMAP, PMAP's frontier, HMAP's
    region.  Equal costs go to the smaller ``pull`` when one is given
    (:func:`center_pull`: a compact placement leaves later cores close free
    nodes), then to the lowest id.
    """
    nodes = np.asarray(candidates)
    costs = placement_costs(mapping, core, nodes)
    if pull is None:
        return int(nodes[np.argmin(costs)])
    cheapest = nodes[costs == costs.min()]
    return int(cheapest[np.argmin(pull[cheapest])])


def initial_mapping(core_graph: CoreGraph, topology: NoCTopology) -> Mapping:
    """Run ``initialize()`` and return the constructive seed mapping.

    Raises:
        MappingError: when the graph has no cores or more cores than nodes.
    """
    if core_graph.num_cores == 0:
        raise MappingError("cannot map an empty core graph")
    mapping = Mapping(core_graph, topology)
    pull = center_pull(topology)
    # Nothing pulls on the seed core yet, so of the max-degree nodes it takes
    # the one nearest the center: room to grow in all directions.
    candidates = topology.max_degree_nodes()
    for core in core_graph.max_adjacency_order():
        mapping.assign(core, best_node(mapping, core, candidates, pull))
        candidates = mapping.free_nodes()
    return mapping
