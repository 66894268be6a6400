"""The seed's scalar kernels and the object-model simulator, kept as oracles.

The object model — ``router.py``, ``vc_router.py``, ``ni.py`` and
``object_engine.py``'s ``ObjectEngine`` — is what every engine name in
``src/`` is held to, report and flit trace; tests file it under a
test-only engine name through ``tests/conftest.py``'s ``object_engine``
fixture.

Production code under ``src/`` has one path per kernel and cannot select
any of these at run time.  ``tests/properties/test_seed_oracles.py`` calls
them directly, or substitutes them with ``monkeypatch`` at the import sites
of a whole algorithm (the constructive mappers, NMAP, the annealer, PBB,
min-path routing) and demands the identical trajectory; the statistics'
packet walks are checked against the column functions by a drawn-packet
property and on whole runs.  Two oracles stay
in ``src/`` (``repro.metrics.comm_cost``): ``comm_cost_reference``, which
``comm_cost`` falls back to on partial mappings, and the per-pair
``swap_cost_delta`` that ``per_pair_swap_deltas`` wraps.
"""

from tests.reference.mapping import (
    PerMoveSwapMirror,
    dijkstra_quadrant_path,
    every_link_quadrant_links,
    next_core_order,
    per_child_bound_pbb,
    per_node_placement_costs,
    per_pair_swap_deltas,
    per_partial_pbb,
    quadrant_outgoing,
    recomputed_frontier_pmap,
    scanned_best_node,
    selection_order,
    sorted_traffic_order,
    summed_affinity_clusters,
)
from tests.reference.simnoc import (
    every_port_step,
    object_walk,
    packet_walk_flow_stats,
    packet_walk_latency_stats,
    schedule_packets,
    seed_build_fabric,
    seed_cycle_loop,
)

__all__ = [
    "PerMoveSwapMirror",
    "dijkstra_quadrant_path",
    "every_link_quadrant_links",
    "every_port_step",
    "next_core_order",
    "object_walk",
    "packet_walk_flow_stats",
    "packet_walk_latency_stats",
    "per_child_bound_pbb",
    "per_node_placement_costs",
    "per_pair_swap_deltas",
    "per_partial_pbb",
    "quadrant_outgoing",
    "recomputed_frontier_pmap",
    "scanned_best_node",
    "schedule_packets",
    "seed_build_fabric",
    "seed_cycle_loop",
    "selection_order",
    "sorted_traffic_order",
    "summed_affinity_clusters",
]
