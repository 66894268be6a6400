"""Exact single-path routing as an integer linear program.

Section 5 of the paper notes that the minimum-path selection could be solved
exactly as an ILP, at the price of minutes of runtime, and reports the
heuristic lands within ~10% of the ILP's solution.  This module is that
comparator: each commodity picks exactly one of its (enumerated) minimum
paths, and the ILP minimizes the maximum link load — the quantity the
heuristic's load balancing targets.  The ablation bench
``benchmarks/bench_ablation_ilp.py`` regenerates the comparison.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.graphs.commodities import Commodity
from repro.graphs.quadrant import enumerate_minimal_paths
from repro.graphs.topology import NoCTopology
from repro.lp import Coo, solve
from repro.routing.base import RoutingResult, path_links


def ilp_single_path_routing(
    topology: NoCTopology,
    commodities: list[Commodity],
    path_limit: int = 200,
) -> tuple[float, RoutingResult]:
    """Choose one minimum path per commodity minimizing the max link load.

    Args:
        topology: the mesh/torus.
        commodities: flows to route.
        path_limit: per-commodity cap on enumerated minimum paths (guards
            against huge quadrants; a 7-hop quadrant already has 35 paths).

    Returns:
        ``(max_link_load, routing)`` at the ILP optimum; no commodities
        load nothing, ``(0.0, empty routing)`` without a solve.

    Raises:
        RoutingError: when the MILP fails (should not happen: selecting any
            path per commodity is always feasible).
    """
    if not commodities:
        return 0.0, RoutingResult.from_paths(topology, [], {}, algorithm="ilp-single-path")
    # Columns: one binary pick per (commodity, candidate path), commodity-
    # major, then lambda.  Rows: each commodity picks exactly one path; each
    # used link, in sorted order, carries at most lambda.
    picks = [
        (k, path)
        for k, commodity in enumerate(commodities)
        for path in enumerate_minimal_paths(
            topology, commodity.src_node, commodity.dst_node, limit=path_limit
        )
    ]
    terms = [(link, p) for p, (_k, path) in enumerate(picks) for link in path_links(path)]
    row_of = {link: row for row, link in enumerate(sorted({link for link, _p in terms}))}
    lam, loads = len(picks), list(range(len(row_of)))
    a_ub = Coo(
        [row_of[link] for link, _p in terms] + loads,
        [p for _link, p in terms] + [lam] * len(loads),
        [commodities[picks[p][0]].value for _link, p in terms] + [-1.0] * len(loads),
    )
    a_eq = Coo([k for k, _path in picks], np.arange(lam), np.ones(lam))
    cost = np.zeros(lam + 1)
    cost[lam] = 1.0
    bounds = np.array([(0.0, 1.0)] * lam + [(0.0, np.inf)])
    solution = solve(
        cost, a_ub, np.zeros(len(loads)), a_eq, np.ones(len(commodities)), bounds,
        integrality=1 - cost,  # every column but lambda
    )  # fmt: skip
    if not solution.is_optimal:
        raise RoutingError(f"single-path ILP unexpectedly {solution.status.value}")

    chosen: dict[int, list[int]] = {}
    for (k, path), value in zip(picks, solution.x):
        if value > 0.5:
            chosen.setdefault(commodities[k].index, path)
    if len(chosen) != len(commodities):  # pragma: no cover - one pick each is a row
        raise RoutingError("ILP picked no path for some commodity")
    routing = RoutingResult.from_paths(
        topology, commodities, chosen, algorithm="ilp-single-path"
    )
    return solution.objective, routing
