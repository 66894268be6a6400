"""NMAP with traffic splitting: ``mappingwithsplitting()`` (§6).

Control flow follows the pseudo-code:

1. ``initialize()`` seed.
2. MCF1 prices the seed's bandwidth-constraint violation (total slack).
   Slack 0 flips ``bwconstsatisfied`` and MCF2 prices the communication
   cost.
3. Pairwise node swaps: while constraints are unsatisfied, each candidate
   runs MCF1 and the first zero-slack candidate flips the phase (candidates
   that merely *reduce* slack become the new best mapping); once satisfied,
   candidates run MCF2 and the cheapest feasible mapping wins.  After each
   outer iteration the best mapping is committed.

Fast path (identical results): MCF2's optimum is lower-bounded by
Equation 7's Manhattan cost (every unit of flow crosses at least
``dist(src, dst)`` links), so in the cost phase candidates whose Manhattan
bound already reaches the best cost are neither built nor priced.

Closed form: on a pristine fabric whose every link carries at least the
application's total traffic (:func:`~repro.mapping.base.no_capacity_can_bind`)
no capacity can bind, so MCF1's optimum is 0 and MCF2's is that Manhattan
bound, which any min-path routing reaches.  There every candidate is priced
without an LP: the search runs the same steps and counts the same programs
(``mcf1_solved`` / ``mcf2_solved`` count MCF programs priced, in closed
form or by HiGHS), and the final mapping's MCF2 routing is left
:class:`~repro.mapping.base.Deferred`, solved on the first read of
``result.routing``.  The cost is then exactly Equation 7 of the placement,
where HiGHS's objective can differ from it in the last bits on
non-integral bandwidths.  Degraded fabrics and links below the total
traffic solve every program.

``quadrant_only=True`` restricts every commodity to its minimum paths
(Equation 10) — the low-jitter NMAPTM variant; False is NMAPTA.
"""

from __future__ import annotations

from repro.api.options import NmapSplitOptions
from repro.api.registry import register_mapper
from repro.graphs.commodities import build_commodities
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Deferred, Mapping, MappingResult, no_capacity_can_bind
from repro.mapping.initializer import initial_mapping
from repro.metrics.comm_cost import MAXVALUE, SwapGains, comm_cost
from repro.routing.split import solve_mcf1, solve_mcf2

#: Total slack below this counts as "bandwidth constraints satisfied".
SLACK_TOLERANCE = 1e-6


def _mcf1_slack(
    mapping: Mapping, quadrant_only: bool, closed_form: bool
) -> tuple[float, object]:
    if closed_form:
        return 0.0, None
    commodities = build_commodities(mapping.core_graph, mapping)
    return solve_mcf1(mapping.topology, commodities, quadrant_only=quadrant_only)


def _mcf2_cost(
    mapping: Mapping, quadrant_only: bool, closed_form: bool
) -> tuple[float, object] | None:
    if closed_form:
        deferred = Deferred.MCF_SPLIT_MINPATH if quadrant_only else Deferred.MCF_SPLIT
        return comm_cost(mapping), deferred
    commodities = build_commodities(mapping.core_graph, mapping)
    return solve_mcf2(mapping.topology, commodities, quadrant_only=quadrant_only)


def nmap_with_splitting(
    core_graph: CoreGraph,
    topology: NoCTopology,
    quadrant_only: bool = False,
    improve: bool = True,
) -> MappingResult:
    """Run the full NMAP split-traffic algorithm (NMAPTA or NMAPTM).

    Args:
        core_graph: application graph.
        topology: NoC graph with the link capacities to satisfy.
        quadrant_only: restrict splitting to minimum paths (NMAPTM).
        improve: False stops after the constructive phase + MCF pricing.

    Returns:
        :class:`MappingResult` whose ``routing`` holds the fractional MCF2
        flows of the final mapping (or the MCF1 flows when no feasible
        mapping was found, for diagnosis); in the closed-form regime they
        are solved on first read.  ``stats["mcf1_solved"]`` and
        ``stats["mcf2_solved"]`` count the MCF programs priced, in closed
        form or by HiGHS.
    """
    algorithm = "nmap-tm" if quadrant_only else "nmap-ta"
    closed_form = no_capacity_can_bind(core_graph, topology)
    mapping = initial_mapping(core_graph, topology)
    stats = {"swaps_tried": 0, "swaps_accepted": 0, "mcf1_solved": 0, "mcf2_solved": 0}

    best_slack, slack_routing = _mcf1_slack(mapping, quadrant_only, closed_form)
    stats["mcf1_solved"] += 1
    bw_satisfied = best_slack <= SLACK_TOLERANCE
    best_cost = MAXVALUE
    best_routing = slack_routing
    if bw_satisfied:
        priced = _mcf2_cost(mapping, quadrant_only, closed_form)
        stats["mcf2_solved"] += 1
        if priced is None:  # pragma: no cover - zero slack implies feasible
            bw_satisfied = False
        else:
            best_cost, best_routing = priced

    if improve:
        nodes = topology.healthy_nodes()
        gains = SwapGains(mapping)
        for i in range(len(nodes)):
            best_swap: tuple[int, int] | None = None
            swap_slack = best_slack
            swap_cost = best_cost
            swap_routing = None
            # The mapping is frozen while scanning j, so the cost phase's
            # Manhattan bounds for every partner come from one gather.
            lower_bounds = comm_cost(mapping) + gains.deltas(nodes[i], nodes[i + 1 :])
            for j, lower_bound in enumerate(lower_bounds.tolist(), start=i + 1):
                stats["swaps_tried"] += 1
                if bw_satisfied and lower_bound >= swap_cost:
                    continue  # its Manhattan bound cannot beat the incumbent
                candidate = mapping.swapped(nodes[i], nodes[j])
                if not bw_satisfied:
                    slack, routing = _mcf1_slack(candidate, quadrant_only, closed_form)
                    stats["mcf1_solved"] += 1
                    if slack <= SLACK_TOLERANCE:
                        # Feasibility reached: price it and enter the cost phase.
                        priced = _mcf2_cost(candidate, quadrant_only, closed_form)
                        stats["mcf2_solved"] += 1
                        if priced is not None:
                            bw_satisfied = True
                            best_swap = (nodes[i], nodes[j])
                            swap_slack = 0.0
                            swap_cost, swap_routing = priced
                    elif slack < swap_slack:
                        best_swap = (nodes[i], nodes[j])
                        swap_slack = slack
                        swap_routing = routing
                else:
                    priced = _mcf2_cost(candidate, quadrant_only, closed_form)
                    stats["mcf2_solved"] += 1
                    if priced is None:
                        continue
                    cost, routing = priced
                    if cost < swap_cost:
                        best_swap = (nodes[i], nodes[j])
                        swap_cost = cost
                        swap_routing = routing
            if best_swap is not None:
                gains.swap(*best_swap)
                best_slack = swap_slack
                best_cost = swap_cost
                if swap_routing is not None:
                    best_routing = swap_routing
                stats["swaps_accepted"] += 1

    return MappingResult(
        mapping=mapping,
        comm_cost=best_cost if bw_satisfied else MAXVALUE,
        feasible=bw_satisfied,
        algorithm=algorithm,
        routing=best_routing,
        stats=stats,
    )


# The two public split variants differ only in the pinned quadrant mode, so
# they register the same function twice instead of defining wrappers.
register_mapper(
    "nmap-tm",
    options=NmapSplitOptions,
    fixed={"quadrant_only": True},
    summary="NMAP with split traffic on minimum paths (NMAPTM, §6)",
)(nmap_with_splitting)
register_mapper(
    "nmap-ta",
    options=NmapSplitOptions,
    fixed={"quadrant_only": False},
    summary="NMAP with split traffic over all paths (NMAPTA, §6)",
)(nmap_with_splitting)
