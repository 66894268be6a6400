"""NMAP with single minimum-path routing: ``mappingwithsinglepath()`` (§5).

Three phases:

1. ``initialize()`` builds the constructive seed
   (:func:`repro.mapping.initializer.initial_mapping`).
2. ``shortestpath()`` routes all commodities with the load-balancing
   quadrant heuristic and prices the mapping: Equation 7's cost when the
   bandwidth constraints hold, ``maxvalue`` otherwise.
3. Pairwise improvement: for every node pair ``(i, j)``, evaluate the
   mapping with the two nodes' contents swapped; after each outer ``i`` the
   best mapping found so far is committed (exactly the pseudo-code's
   control flow).

Pricing shortcut (results identical to re-evaluating every candidate, see
PERFORMANCE.md): Equation 7 depends only on hop distances, so a candidate
swap's cost is the current cost plus a delta that only the two moved cores'
flows enter.  The deltas are read from a gain table
(:class:`~repro.metrics.comm_cost.SwapGains`: the cost of each core on each
node, its neighbors pinned) — built at the top of each pass, gathered from
once per outer ``i`` for all partners ``j`` (the mapping is frozen during
the scan), and shifted in place when a swap commits.  The routing heuristic
runs only for candidates that would actually improve the best cost, to
confirm bandwidth feasibility.  When every link's capacity is at least the
total traffic of the application, any routing is feasible and the check is
skipped altogether.
"""

from __future__ import annotations

import numpy as np

from repro.api.options import NmapOptions
from repro.errors import MappingError
from repro.api.registry import register_mapper
from repro.graphs.commodities import build_commodities
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import DEFERRED, Deferred, Mapping, MappingResult
from repro.mapping.initializer import initial_mapping
from repro.metrics.comm_cost import MAXVALUE, SwapGains, comm_cost
from repro.routing.base import RoutingResult
from repro.routing.min_path import min_path_routing


def evaluate_single_path(mapping: Mapping) -> tuple[float, RoutingResult | Deferred, bool]:
    """The ``shortestpath()`` evaluation of one complete mapping.

    On a pristine fabric whose every link carries at least the
    application's total traffic no routing can break a capacity, so none is
    run: the routing comes back :data:`~repro.mapping.base.DEFERRED`, which
    a :class:`MappingResult` routes on first read.  A degraded fabric is
    always routed here, so a fault that disconnects a commodity fails at
    map time.

    Returns:
        ``(cost, routing, feasible)`` where ``cost`` is Equation 7 when the
        routed loads satisfy every link capacity and ``maxvalue`` otherwise.
        ``routing`` is the min-path :class:`RoutingResult` or, in the
        pristine trivially-feasible case, :data:`DEFERRED` (not a routing:
        hand it to a :class:`MappingResult` and read ``result.routing``).
    """
    topology = mapping.topology
    if not topology.is_degraded and _trivially_feasible(mapping.core_graph, topology):
        return comm_cost(mapping), DEFERRED, True
    commodities = build_commodities(mapping.core_graph, mapping)
    routing = min_path_routing(topology, commodities)
    feasible = routing.is_feasible()
    cost = comm_cost(mapping) if feasible else MAXVALUE
    return cost, routing, feasible


def _trivially_feasible(core_graph: CoreGraph, topology: NoCTopology) -> bool:
    """True when no routing can ever violate a link capacity."""
    return topology.min_link_bandwidth() >= core_graph.total_bandwidth()


@register_mapper("nmap", options=NmapOptions,
                 summary="NMAP with single minimum-path routing (§5)")
def nmap_single_path(
    core_graph: CoreGraph,
    topology: NoCTopology,
    improve: bool = True,
    max_passes: int | None = None,
    objective: str = "comm-cost",
) -> MappingResult:
    """Run the full NMAP single-minimum-path algorithm.

    Args:
        core_graph: application graph ``G(V, E)``.
        topology: NoC graph ``P(U, F)`` with link capacities.
        improve: False stops after the constructive phase (the ablation
            bench uses this to measure what the swap loop buys).
        max_passes: number of full pairwise-swap sweeps.  The pseudo-code
            shows one sweep; by default the sweep repeats until no swap is
            accepted (a fixpoint of the same neighborhood, at most
            ``|U|`` sweeps), which only ever improves on the single sweep.
            Pass ``1`` for the literal pseudo-code behaviour.
        objective: ``"comm-cost"`` (Equation 7, the paper's objective) or
            ``"resilience"`` — the same search, but swaps are scored by
            expected cost over the single-link-failure ensemble (see
            :mod:`repro.faults.resilience`).  The final mapping is routed
            and priced on the pristine fabric either way.

    Returns:
        A :class:`MappingResult`; ``comm_cost`` is ``inf`` when no
        bandwidth-feasible mapping was found.

    Raises:
        MappingError: for ``objective="resilience"`` on a fabric whose link
            capacities could make a routing infeasible — the ensemble view
            is not routable, so the search needs the pure-cost regime.
    """
    resilience = objective == "resilience"
    if resilience:
        from repro.faults.resilience import resilience_view

        if not _trivially_feasible(core_graph, topology):
            raise MappingError(
                "objective='resilience' requires link capacities at or above "
                "the application's total bandwidth (the pure-cost regime): "
                "the ensemble metric view cannot be routed for feasibility "
                "checks"
            )
        search_topology, ensemble_size = resilience_view(topology)
    else:
        search_topology, ensemble_size = topology, 0

    mapping = initial_mapping(core_graph, search_topology)
    skip_routing = resilience or _trivially_feasible(core_graph, topology)

    if skip_routing:
        best_cost: float = comm_cost(mapping)
        best_feasible = True
    else:
        best_cost, _, best_feasible = evaluate_single_path(mapping)

    stats = {"swaps_tried": 0, "swaps_accepted": 0, "routings_run": 0 if skip_routing else 1,
             "passes": 0}

    if improve:
        nodes = search_topology.healthy_nodes()
        node_ids = np.array(nodes, dtype=np.int64)
        pass_limit = max_passes if max_passes is not None else len(nodes)
        for _ in range(pass_limit):
            stats["passes"] += 1
            accepted_this_pass = 0
            manhattan_cost = comm_cost(mapping)
            # Built afresh each pass, so rounding in the in-place shifts
            # (fractional bandwidths only) cannot carry from pass to pass.
            gains = SwapGains(mapping)
            for i in range(len(nodes)):
                best_swap: tuple[int, int] | None = None
                best_swap_cost = best_cost
                # The mapping is frozen while scanning j (the best swap for
                # this i commits only after the scan), so one gather scores
                # every partner.
                deltas = gains.deltas(nodes[i], node_ids[i + 1 :])
                for node_j, delta in zip(nodes[i + 1 :], deltas.tolist()):
                    stats["swaps_tried"] += 1
                    if delta == 0.0 and best_feasible:
                        continue
                    candidate_cost = manhattan_cost + delta
                    if candidate_cost >= best_swap_cost and best_feasible:
                        continue
                    if skip_routing:
                        feasible = True
                    else:
                        candidate = mapping.swapped(nodes[i], node_j)
                        stats["routings_run"] += 1
                        _, _, feasible = evaluate_single_path(candidate)
                    if feasible and (candidate_cost < best_swap_cost or not best_feasible):
                        best_swap = (nodes[i], node_j)
                        best_swap_cost = candidate_cost
                        best_feasible = True
                if best_swap is not None:
                    gains.swap(*best_swap)
                    manhattan_cost = comm_cost(mapping)
                    best_cost = best_swap_cost
                    stats["swaps_accepted"] += 1
                    accepted_this_pass += 1
            if accepted_this_pass == 0:
                break

    if resilience:
        # The search ran on the ensemble metric view; re-anchor the result on
        # the real fabric so routing and the reported Equation-7 cost are the
        # pristine ones.  The expectation the search optimized is in stats.
        stats["objective"] = objective
        stats["expected_fault_cost"] = comm_cost(mapping) / ensemble_size
        mapping = Mapping(core_graph, topology, mapping.placement)

    final_cost, routing, feasible = evaluate_single_path(mapping)
    return MappingResult(
        mapping=mapping,
        comm_cost=final_cost,
        feasible=feasible,
        algorithm="nmap",
        routing=routing,
        stats=stats,
    )
