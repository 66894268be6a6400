"""Exhaustive mapping oracle for small instances (testing / calibration).

Enumerates every injective placement of cores onto nodes (with mirror
symmetry breaking on the first core) and returns the Equation 7 optimum.
Exponential — guarded to tiny instance sizes — but invaluable for checking
that NMAP and PBB actually reach or approach optimal cost on graphs small
enough to verify.
"""

from __future__ import annotations

from itertools import permutations

from repro.errors import MappingError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult
from repro.mapping.nmap import evaluate_single_path

#: Hard cap on the number of placements enumerated.
MAX_PLACEMENTS = 2_000_000


def exhaustive_best_mapping(
    core_graph: CoreGraph, topology: NoCTopology
) -> MappingResult:
    """Find the cost-optimal mapping by enumeration.

    Raises:
        MappingError: when the instance would exceed ``MAX_PLACEMENTS``
            placements (use a smaller graph/mesh for oracle tests).
    """
    cores = core_graph.cores
    if not cores:
        raise MappingError("cannot map an empty core graph")
    nodes = list(topology.nodes)

    count = 1
    for i in range(len(cores)):
        count *= len(nodes) - i
        if count > MAX_PLACEMENTS:
            raise MappingError(
                f"exhaustive search over ~{count} placements is too large"
            )

    flows = list(zip(*(column.tolist() for column in core_graph.flow_arrays())))
    hops = topology.distance_rows()
    half_width = (topology.width - 1) / 2
    half_height = (topology.height - 1) / 2

    best_cost = float("inf")
    best_assignment: tuple[int, ...] | None = None
    for assignment in permutations(nodes, len(cores)):
        first_x, first_y = topology.coords(assignment[0])
        if not topology.torus and (first_x > half_width or first_y > half_height):
            continue  # mirror image of an already-seen placement
        cost = 0.0
        for src_idx, dst_idx, bandwidth in flows:
            cost += bandwidth * hops[assignment[src_idx]][assignment[dst_idx]]
            if cost >= best_cost:
                break
        if cost < best_cost:
            best_cost = cost
            best_assignment = assignment

    assert best_assignment is not None  # at least one placement always exists
    mapping = Mapping(
        core_graph,
        topology,
        {core: best_assignment[index] for index, core in enumerate(cores)},
    )
    cost, routing, feasible = evaluate_single_path(mapping)
    return MappingResult(
        mapping=mapping,
        comm_cost=cost,
        feasible=feasible,
        algorithm="exhaustive",
        routing=routing,
    )
