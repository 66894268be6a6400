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

Each builder accepts ``quadrant_only``: when True, commodity ``k``'s
variables exist only on the monotone links of its quadrant ``Q(d_k)``
(Equation 10), so all of its traffic travels minimum paths — the NMAPTM
variant with equal hop delay across split paths, for low-jitter traffic.
When False, variables exist on every link (NMAPTA).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RoutingError
from repro.graphs.commodities import Commodity
from repro.graphs.quadrant import quadrant_links
from repro.graphs.topology import NoCTopology
from repro.lp.model import LinearProgram, Variable, lin_sum
from repro.lp.solver import Solution, solve
from repro.routing.base import FLOW_EPSILON, LinkKey, RoutingResult


@dataclass
class _McfModel:
    """A built (but unsolved) MCF program plus its variable bookkeeping."""

    program: LinearProgram
    flow_vars: dict[tuple[int, LinkKey], Variable]
    commodities: list[Commodity]
    topology: NoCTopology

    def extract_routing(self, solution: Solution, algorithm: str) -> RoutingResult:
        """Turn an optimal solution's flow variables into a RoutingResult."""
        flows: dict[int, dict[LinkKey, float]] = {c.index: {} for c in self.commodities}
        for (index, link), variable in self.flow_vars.items():
            amount = solution.value_of(variable)
            if amount > FLOW_EPSILON:
                flows[index][link] = amount
        return RoutingResult(
            topology=self.topology,
            commodities=self.commodities,
            flows=flows,
            paths=None,
            algorithm=algorithm,
        )


def _allowed_links(
    topology: NoCTopology, commodity: Commodity, quadrant_only: bool
) -> list[LinkKey]:
    if quadrant_only:
        return quadrant_links(
            topology, commodity.src_node, commodity.dst_node, monotone=True
        )
    return topology.link_keys()


def build_mcf_model(
    topology: NoCTopology,
    commodities: list[Commodity],
    quadrant_only: bool = False,
    name: str = "mcf",
) -> _McfModel:
    """Create flow variables and per-commodity conservation constraints.

    The returned model carries no capacity constraints or objective yet;
    the three public solvers add their own.

    Raises:
        RoutingError: if the commodity list is empty (nothing to route).
    """
    if not commodities:
        raise RoutingError("cannot build an MCF over zero commodities")
    program = LinearProgram(name=name)
    flow_vars: dict[tuple[int, LinkKey], Variable] = {}
    for commodity in commodities:
        for link in _allowed_links(topology, commodity, quadrant_only):
            flow_vars[(commodity.index, link)] = program.add_var(
                f"x[{commodity.index},{link[0]}->{link[1]}]", low=0.0
            )

    # Flow conservation (Equation 5, per commodity): out - in = flow_k(node).
    for commodity in commodities:
        links = _allowed_links(topology, commodity, quadrant_only)
        touched: set[int] = set()
        for u, v in links:
            touched.add(u)
            touched.add(v)
        for node in sorted(touched):
            outgoing = [
                flow_vars[(commodity.index, (u, v))] for (u, v) in links if u == node
            ]
            incoming = [
                flow_vars[(commodity.index, (u, v))] for (u, v) in links if v == node
            ]
            balance = lin_sum(outgoing) - lin_sum(incoming)
            if node == commodity.src_node:
                program.add_constraint(balance.equals(commodity.value))
            elif node == commodity.dst_node:
                program.add_constraint(balance.equals(-commodity.value))
            else:
                program.add_constraint(balance.equals(0.0))
    return _McfModel(program, flow_vars, list(commodities), topology)


def _link_load_expr(model: _McfModel, link: LinkKey):
    terms = [
        variable
        for (index, var_link), variable in model.flow_vars.items()
        if var_link == link
    ]
    return lin_sum(terms)


def _loads_by_link(model: _McfModel) -> dict[LinkKey, list[Variable]]:
    by_link: dict[LinkKey, list[Variable]] = {}
    for (index, link), variable in model.flow_vars.items():
        by_link.setdefault(link, []).append(variable)
    return by_link


def solve_mcf1(
    topology: NoCTopology,
    commodities: list[Commodity],
    quadrant_only: bool = False,
) -> tuple[float, RoutingResult]:
    """MCF1 (Equation 8): minimize total capacity-violation slack.

    Returns:
        ``(total_slack, routing)``.  ``total_slack == 0`` (up to LP
        tolerance) means the mapping satisfies the bandwidth constraints
        with split-traffic routing.

    Raises:
        RoutingError: if the LP is not optimal (conservation alone is always
            feasible with enough slack, so this indicates a modeling bug).
    """
    model = build_mcf_model(topology, commodities, quadrant_only, name="mcf1")
    program = model.program
    slack_vars = []
    for link, variables in sorted(_loads_by_link(model).items()):
        slack = program.add_var(f"s[{link[0]}->{link[1]}]", low=0.0)
        slack_vars.append(slack)
        capacity = topology.link_bandwidth(*link)
        program.add_constraint(lin_sum(variables) - slack <= capacity)
    program.set_objective(lin_sum(slack_vars))
    solution = solve(program)
    if not solution.is_optimal:
        raise RoutingError(f"MCF1 unexpectedly {solution.status.value}")
    slack_total = max(0.0, solution.objective)
    return slack_total, model.extract_routing(
        solution, "mcf-split-minpath" if quadrant_only else "mcf-split"
    )


def solve_mcf2(
    topology: NoCTopology,
    commodities: list[Commodity],
    quadrant_only: bool = False,
) -> tuple[float, RoutingResult] | None:
    """MCF2 (Equation 9): hard capacities, minimize total flow (= comm cost).

    Returns:
        ``(total_flow_cost, routing)`` when a capacity-feasible split routing
        exists, else None (the caller — ``mappingwithsplitting()`` — treats
        that as cost ``maxvalue``).
    """
    model = build_mcf_model(topology, commodities, quadrant_only, name="mcf2")
    program = model.program
    for link, variables in sorted(_loads_by_link(model).items()):
        program.add_constraint(lin_sum(variables) <= topology.link_bandwidth(*link))
    program.set_objective(lin_sum(list(model.flow_vars.values())))
    solution = solve(program)
    if not solution.is_optimal:
        return None
    return solution.objective, model.extract_routing(
        solution, "mcf-split-minpath" if quadrant_only else "mcf-split"
    )


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
        ``(lambda_star, routing)``.
    """
    model = build_mcf_model(topology, commodities, quadrant_only, name="min-congestion")
    program = model.program
    lam = program.add_var("lambda", low=0.0)
    for link, variables in sorted(_loads_by_link(model).items()):
        program.add_constraint(lin_sum(variables) - lam <= 0.0)
    program.set_objective(lam)
    solution = solve(program)
    if not solution.is_optimal:
        raise RoutingError(f"min-congestion LP unexpectedly {solution.status.value}")
    lambda_star = solution.objective
    if not minimize_flow_secondary:
        return lambda_star, model.extract_routing(solution, "min-congestion")

    # Second phase: pin lambda (with a hair of tolerance) and minimize flow.
    model2 = build_mcf_model(topology, commodities, quadrant_only, name="min-congestion-2")
    program2 = model2.program
    cap = lambda_star * (1.0 + 1e-9) + 1e-9
    for link, variables in sorted(_loads_by_link(model2).items()):
        program2.add_constraint(lin_sum(variables) <= cap)
    program2.set_objective(lin_sum(list(model2.flow_vars.values())))
    solution2 = solve(program2)
    if not solution2.is_optimal:
        # Numerical corner: fall back to the phase-1 flows.
        return lambda_star, model.extract_routing(solution, "min-congestion")
    return lambda_star, model2.extract_routing(solution2, "min-congestion")
