"""Traffic splitting via multi-commodity flow (§6 of the paper).

Three LPs over the same flow variables ``x^k_{i,j}`` (commodity ``k`` on
directed link ``(i, j)``), each with per-commodity flow conservation
(Equation 5, read per commodity):

* **MCF1** (Equation 8): minimize the total slack by which link capacities
  are exceeded.  Slack 0 means the mapping satisfies the bandwidth
  constraints with split traffic.
* **MCF2** (Equation 9): capacities hard; minimize total flow over all
  links, which equals the communication cost of the split routing.
* **min-congestion**: minimize a single capacity value ``lambda`` such that
  every link load is at most ``lambda``.  This computes Figure 4's metric —
  the minimum uniform link bandwidth the application needs — directly.

Each solver accepts ``quadrant_only``: when True, commodity ``k``'s
variables exist only on the monotone links of its quadrant ``Q(d_k)``
(Equation 10), so all of its traffic travels minimum paths — the NMAPTM
variant with equal hop delay across split paths, for low-jitter traffic.
When False, variables exist on every link (NMAPTA).

The programs are assembled as arrays (SNIPPETS.md Snippet 1's layout):
columns run commodity-major over each commodity's links, with the slack
variables or ``lambda`` last; conservation rows run per commodity over the
nodes its links touch, ascending; capacity rows run over the links that
carry a variable, in sorted order.  HiGHS's vertex choice — and so every
response byte downstream — follows that order, which
``tests/properties/test_seed_oracles.py`` pins against the object-built
assembly it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.graphs.commodities import Commodity
from repro.graphs.quadrant import quadrant_links
from repro.graphs.topology import NoCTopology
from repro.lp import Coo, Solution, solve
from repro.routing.base import FLOW_EPSILON, RoutingResult


@dataclass
class McfAssembly:
    """What the three programs share: flow columns, Equation 5, link incidence.

    Attributes:
        var_commodity: per flow variable, its commodity's list position.
        var_link: per flow variable, its link's ``link_keys()`` position.
        eq: the conservation rows (Equation 5), as the program's ``A_eq``.
        b_eq: its right-hand side: +value at source rows, -value at destination rows.
        cap_links: ``link_keys()`` positions of the capacity rows' links.
        cap_row: per flow variable, the capacity row of its link.
    """

    topology: NoCTopology
    commodities: list[Commodity]
    var_commodity: np.ndarray
    var_link: np.ndarray
    eq: Coo
    b_eq: np.ndarray
    cap_links: np.ndarray
    cap_row: np.ndarray

    def solve(self, cost: np.ndarray, b_ub: np.ndarray, extra=None) -> Solution:
        """Solve over ``len(cost)`` columns: the flow columns, then any others.

        ``extra`` is ``(rows, cols, data)``: what the other columns (slacks,
        ``lambda``) contribute to the link-incidence capacity rows.
        """
        n, flow_vars = len(cost), len(self.var_link)
        a_ub = Coo(self.cap_row, np.arange(flow_vars), np.ones(flow_vars))
        if extra is not None:
            a_ub = Coo(*(np.concatenate(both) for both in zip(a_ub, extra)))
        bounds = np.zeros((n, 2))
        bounds[:, 1] = np.inf
        return solve(cost, a_ub, b_ub, self.eq, self.b_eq, bounds)

    def routing(self, x: np.ndarray, algorithm: str) -> RoutingResult:
        """Turn an optimal solution's flow variables into a RoutingResult."""
        keys = self.topology.link_keys()
        flows: list[dict] = [{} for _ in self.commodities]
        flow = x[: len(self.var_link)]
        used = flow > FLOW_EPSILON
        carried = (self.var_commodity[used], self.var_link[used], flow[used])
        for k, link, amount in zip(*(column.tolist() for column in carried)):
            flows[k][keys[link]] = amount
        return RoutingResult(
            topology=self.topology,
            commodities=self.commodities,
            flows={c.index: flows[k] for k, c in enumerate(self.commodities)},
            paths=None,
            algorithm=algorithm,
        )


def assemble_mcf(
    topology: NoCTopology, commodities: list[Commodity], quadrant_only: bool = False
) -> McfAssembly:
    """Lay out flow variables and per-commodity conservation (Equation 5).

    Carries no capacity right-hand side or objective yet; the three public
    solvers add their own.

    Raises:
        RoutingError: if the commodity list is empty (nothing to route).
    """
    if not commodities:
        raise RoutingError("cannot build an MCF over zero commodities")
    src, dst, _bandwidth = topology.link_arrays()
    blocks = [np.arange(topology.num_links)] * len(commodities)
    if quadrant_only:  # Equation 10: each commodity's monotone quadrant links only
        position = {key: i for i, key in enumerate(topology.link_keys())}
        quadrants = (
            quadrant_links(topology, c.src_node, c.dst_node, monotone=True) for c in commodities
        )
        blocks = [np.array([position[key] for key in q], dtype=np.int64) for q in quadrants]
    var_commodity = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    var_link = np.concatenate(blocks)

    # Equation 5, one row per (commodity, node) cell the commodity's links
    # touch, cells numbered commodity-major: out - in = +value at the source,
    # -value at the destination, 0 elsewhere.
    first_cell = np.arange(len(commodities)) * topology.num_nodes
    tails = first_cell[var_commodity] + src[var_link]
    heads = first_cell[var_commodity] + dst[var_link]
    touched = np.zeros(len(commodities) * topology.num_nodes, dtype=bool)
    touched[tails] = True
    touched[heads] = True
    row = np.cumsum(touched) - 1
    b_eq = np.zeros(int(touched.sum()))
    values = np.array([c.value for c in commodities], dtype=np.float64)
    dst_cells = first_cell + [c.dst_node for c in commodities]
    src_cells = first_cell + [c.src_node for c in commodities]
    for signed, cells in ((-values, dst_cells), (values, src_cells)):
        kept = touched[cells]  # an end none of its links reaches has no row
        b_eq[row[cells[kept]]] = signed[kept]

    # Capacity rows: the links that carry a variable, in sorted order.
    order = topology.sorted_link_order()
    carried = np.zeros(topology.num_links, dtype=bool)
    carried[var_link] = True
    cap_links = order[carried[order]]
    row_of_link = np.empty(topology.num_links, dtype=np.int64)
    row_of_link[cap_links] = np.arange(len(cap_links))

    return McfAssembly(
        topology=topology,
        commodities=list(commodities),
        var_commodity=var_commodity,
        var_link=var_link,
        eq=Coo(
            row[np.concatenate([tails, heads])],
            np.tile(np.arange(len(var_link)), 2),
            np.repeat([1.0, -1.0], len(var_link)),
        ),
        b_eq=b_eq,
        cap_links=cap_links,
        cap_row=row_of_link[var_link],
    )


def _split_name(quadrant_only: bool) -> str:
    return "mcf-split-minpath" if quadrant_only else "mcf-split"


def _no_traffic(topology: NoCTopology, algorithm: str) -> RoutingResult:
    """The routing of an application without flows: nothing on any link,
    so slack, cost and lambda are all 0 without an LP."""
    return RoutingResult(topology=topology, commodities=[], flows={}, algorithm=algorithm)


def solve_mcf1(
    topology: NoCTopology, commodities: list[Commodity], quadrant_only: bool = False
) -> tuple[float, RoutingResult]:
    """MCF1 (Equation 8): minimize total capacity-violation slack.

    Returns:
        ``(total_slack, routing)``.  ``total_slack == 0`` (up to LP
        tolerance) means the mapping satisfies the bandwidth constraints
        with split-traffic routing; no commodities need no slack.

    Raises:
        RoutingError: if the LP is not optimal (conservation alone is always
            feasible with enough slack, so this indicates a modeling bug).
    """
    if not commodities:
        return 0.0, _no_traffic(topology, _split_name(quadrant_only))
    model = assemble_mcf(topology, commodities, quadrant_only)
    flow_vars, links = len(model.var_link), len(model.cap_links)
    slack = np.arange(links)  # one slack column per capacity row, after the flows
    cost = np.concatenate([np.zeros(flow_vars), np.ones(links)])
    capacities = topology.link_arrays()[2][model.cap_links]
    solution = model.solve(cost, capacities, (slack, flow_vars + slack, -np.ones(links)))
    if not solution.is_optimal:
        raise RoutingError(f"MCF1 unexpectedly {solution.status.value}")
    slack_total = max(0.0, solution.objective)
    return slack_total, model.routing(solution.x, _split_name(quadrant_only))


def solve_mcf2(
    topology: NoCTopology, commodities: list[Commodity], quadrant_only: bool = False
) -> tuple[float, RoutingResult] | None:
    """MCF2 (Equation 9): hard capacities, minimize total flow (= comm cost).

    Returns:
        ``(total_flow_cost, routing)`` when a capacity-feasible split routing
        exists, else None (the caller — ``mappingwithsplitting()`` — treats
        that as cost ``maxvalue``).  No commodities cost 0.
    """
    if not commodities:
        return 0.0, _no_traffic(topology, _split_name(quadrant_only))
    model = assemble_mcf(topology, commodities, quadrant_only)
    capacities = topology.link_arrays()[2][model.cap_links]
    solution = model.solve(np.ones(len(model.var_link)), capacities)
    if not solution.is_optimal:
        return None
    return solution.objective, model.routing(solution.x, _split_name(quadrant_only))


def solve_min_congestion(
    topology: NoCTopology,
    commodities: list[Commodity],
    quadrant_only: bool = False,
    minimize_flow_secondary: bool = True,
) -> tuple[float, RoutingResult]:
    """Minimum uniform link bandwidth achievable with traffic splitting.

    Solves ``min lambda s.t. load(link) <= lambda`` for every link, with
    per-commodity conservation — Figure 4's NMAPTM/NMAPTA metric for a given
    mapping.  Link capacities of the topology are ignored (the whole point
    is to discover the needed capacity).

    Args:
        minimize_flow_secondary: when True a second LP fixes
            ``lambda = lambda*`` and minimizes total flow, yielding a unique,
            decomposable flow pattern (used by the simulator); the congestion
            value is unchanged.

    Returns:
        ``(lambda_star, routing)``; no commodities need ``lambda_star == 0``.
    """
    if not commodities:
        return 0.0, _no_traffic(topology, "min-congestion")
    model = assemble_mcf(topology, commodities, quadrant_only)
    flow_vars, links = len(model.var_link), len(model.cap_links)
    cost = np.zeros(flow_vars + 1)
    cost[-1] = 1.0  # lambda, the one column after the flows
    lambda_terms = (np.arange(links), np.full(links, flow_vars), -np.ones(links))
    solution = model.solve(cost, np.zeros(links), lambda_terms)
    if not solution.is_optimal:
        raise RoutingError(f"min-congestion LP unexpectedly {solution.status.value}")
    lambda_star = solution.objective
    if minimize_flow_secondary:
        # Second phase on the same assembly: drop lambda's column, pin the
        # capacities to lambda* (with a hair of tolerance), minimize flow.
        cap = lambda_star * (1.0 + 1e-9) + 1e-9
        second = model.solve(np.ones(flow_vars), np.full(links, cap))
        if second.is_optimal:  # else a numerical corner: keep phase 1's flows
            solution = second
    return lambda_star, model.routing(solution.x, "min-congestion")
