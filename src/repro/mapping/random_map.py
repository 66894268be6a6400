"""Seeded random mappings — the null baseline and test fuzzing substrate."""

from __future__ import annotations

import random

from repro.errors import MappingError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult
from repro.mapping.nmap import evaluate_single_path


def random_mapping(
    core_graph: CoreGraph, topology: NoCTopology, seed: int = 0
) -> MappingResult:
    """Place cores on uniformly random distinct nodes (deterministic per seed)."""
    if core_graph.num_cores == 0:
        raise MappingError("cannot map an empty core graph")
    rng = random.Random(seed)
    nodes = rng.sample(list(topology.nodes), core_graph.num_cores)
    mapping = Mapping(
        core_graph,
        topology,
        {core: node for core, node in zip(core_graph.cores, nodes)},
    )
    cost, routing, feasible = evaluate_single_path(mapping)
    return MappingResult(
        mapping=mapping,
        comm_cost=cost,
        feasible=feasible,
        algorithm="random",
        routing=routing,
    )
