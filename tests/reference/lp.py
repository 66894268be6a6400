"""The object-built LP assembly, kept as the oracle for the array assembly.

Until PR 22 this was ``repro.lp.model`` + ``repro.lp.solver._build_matrices``
+ the builders of ``repro.routing.split``: a :class:`LinearProgram` owns
:class:`Variable` objects and constraints built from :class:`LinExpr`
expressions (``2 * x + y - 3``, ``expr <= rhs``), so the multi-commodity-flow
builders read like the paper's equations, and :func:`matrices` lowers one to
the arrays HiGHS sees.  HiGHS's vertex choice follows row and column order,
so ``tests/properties/test_seed_oracles.py::TestMcfAssembly`` demands that
``repro.routing.split`` assembles exactly these arrays.

:func:`linprog_solve` is the other half of the oracle: the body
``repro.lp.solve`` had until it called scipy's bundled HiGHS core itself —
:func:`scipy.optimize.linprog`, or :func:`scipy.optimize.milp` when some
variable is integer.  The core is private to scipy, so ``TestMcfAssembly``
holds ``repro.lp.solve`` to this public call on every program it draws, and a
scipy upgrade that changes the core shows up there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.errors import RoutingError, SolverError
from repro.graphs.commodities import Commodity
from repro.graphs.quadrant import quadrant_links
from repro.graphs.topology import NoCTopology
from repro.lp import Solution, SolveStatus, solve
from repro.routing.base import FLOW_EPSILON, LinkKey, RoutingResult


class Variable:
    """One decision variable with bounds and an optional integrality flag.

    Instances are created through :meth:`LinearProgram.add_var`; identity is
    the ``index`` within the owning program.
    """

    __slots__ = ("index", "name", "low", "high", "integer")

    def __init__(
        self,
        index: int,
        name: str,
        low: float | None = 0.0,
        high: float | None = None,
        integer: bool = False,
    ) -> None:
        self.index = index
        self.name = name
        self.low = low
        self.high = high
        self.integer = integer

    # Arithmetic lifts a Variable into a LinExpr -----------------------
    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def __add__(self, other: "Variable | LinExpr | float") -> "LinExpr":
        return self._expr() + other

    def __radd__(self, other: "Variable | LinExpr | float") -> "LinExpr":
        return self._expr() + other

    def __sub__(self, other: "Variable | LinExpr | float") -> "LinExpr":
        return self._expr() - other

    def __rsub__(self, other: "Variable | LinExpr | float") -> "LinExpr":
        return (-1.0 * self._expr()) + other

    def __mul__(self, factor: float) -> "LinExpr":
        return self._expr() * factor

    def __rmul__(self, factor: float) -> "LinExpr":
        return self._expr() * factor

    def __neg__(self) -> "LinExpr":
        return self._expr() * -1.0

    def __le__(self, other: "Variable | LinExpr | float") -> "ConstraintSpec":
        return self._expr() <= other

    def __ge__(self, other: "Variable | LinExpr | float") -> "ConstraintSpec":
        return self._expr() >= other

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class LinExpr:
    """A linear expression: ``sum(coef_i * var_i) + constant``.

    Immutable by convention: arithmetic returns new expressions.  The
    coefficient map is keyed by variable index.
    """

    __slots__ = ("coefs", "constant")

    def __init__(self, coefs: Mapping[int, float] | None = None, constant: float = 0.0) -> None:
        self.coefs: dict[int, float] = dict(coefs or {})
        self.constant = float(constant)

    @staticmethod
    def _coerce(value: "Variable | LinExpr | float") -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._expr()
        if isinstance(value, (int, float)):
            return LinExpr({}, float(value))
        raise SolverError(f"cannot use {value!r} in a linear expression")

    def __add__(self, other: "Variable | LinExpr | float") -> "LinExpr":
        rhs = self._coerce(other)
        coefs = dict(self.coefs)
        for index, coef in rhs.coefs.items():
            coefs[index] = coefs.get(index, 0.0) + coef
        return LinExpr(coefs, self.constant + rhs.constant)

    def __radd__(self, other: "Variable | LinExpr | float") -> "LinExpr":
        return self + other

    def __sub__(self, other: "Variable | LinExpr | float") -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other: "Variable | LinExpr | float") -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, factor: float) -> "LinExpr":
        if not isinstance(factor, (int, float)):
            raise SolverError("linear expressions can only be scaled by numbers")
        return LinExpr(
            {index: coef * factor for index, coef in self.coefs.items()},
            self.constant * factor,
        )

    def __rmul__(self, factor: float) -> "LinExpr":
        return self * factor

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other: "Variable | LinExpr | float") -> "ConstraintSpec":
        return ConstraintSpec(self - other, "<=")

    def __ge__(self, other: "Variable | LinExpr | float") -> "ConstraintSpec":
        return ConstraintSpec(self - other, ">=")

    def equals(self, other: "Variable | LinExpr | float") -> "ConstraintSpec":
        """Equality constraint (``==`` is left to Python's object semantics)."""
        return ConstraintSpec(self - other, "==")

    def __repr__(self) -> str:
        terms = " + ".join(f"{coef:g}*v{index}" for index, coef in sorted(self.coefs.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


@dataclass(frozen=True)
class ConstraintSpec:
    """A normalized constraint: ``expr (<=|>=|==) 0`` after moving the RHS."""

    expr: LinExpr
    sense: str  # "<=", ">=", "=="


def lin_sum(items: Iterable["Variable | LinExpr | float"]) -> LinExpr:
    """Sum an iterable of variables/expressions into one expression.

    Builds the coefficient map in place, so summing thousands of flow
    variables (as the MCF builders do) stays linear time.
    """
    coefs: dict[int, float] = {}
    constant = 0.0
    for item in items:
        expr = LinExpr._coerce(item)
        constant += expr.constant
        for index, coef in expr.coefs.items():
            coefs[index] = coefs.get(index, 0.0) + coef
    return LinExpr(coefs, constant)


@dataclass
class LinearProgram:
    """A container of variables, constraints and one objective.

    Attributes:
        name: label used in error messages.
        minimize: objective sense; True for minimization (the only sense the
            paper's formulations need, but maximization is supported by
            negating).
    """

    name: str = "lp"
    minimize: bool = True
    variables: list[Variable] = field(default_factory=list)
    constraints: list[ConstraintSpec] = field(default_factory=list)
    objective: LinExpr = field(default_factory=LinExpr)

    def add_var(
        self,
        name: str,
        low: float | None = 0.0,
        high: float | None = None,
        integer: bool = False,
    ) -> Variable:
        """Create a variable.  Default bounds are ``[0, +inf)`` as in the paper."""
        if low is not None and high is not None and low > high:
            raise SolverError(f"variable {name!r} has empty bounds [{low}, {high}]")
        variable = Variable(len(self.variables), name, low, high, integer)
        self.variables.append(variable)
        return variable

    def add_constraint(self, spec: ConstraintSpec) -> None:
        """Register a constraint built via ``<=``, ``>=`` or ``.equals()``."""
        if not isinstance(spec, ConstraintSpec):
            raise SolverError(
                "add_constraint expects a comparison of linear expressions; "
                f"got {spec!r}"
            )
        self.constraints.append(spec)

    def set_objective(self, expr: "Variable | LinExpr", minimize: bool = True) -> None:
        self.objective = LinExpr._coerce(expr)
        self.minimize = minimize

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def has_integer_vars(self) -> bool:
        return any(variable.integer for variable in self.variables)

    def bounds(self) -> Sequence[tuple[float | None, float | None]]:
        return [(variable.low, variable.high) for variable in self.variables]

    def __repr__(self) -> str:
        kind = "MILP" if self.has_integer_vars else "LP"
        return (
            f"LinearProgram({self.name!r}, {kind}, vars={self.num_vars}, "
            f"constraints={self.num_constraints})"
        )


# ----------------------------------------------------------------------
# the linprog / milp call (repro.lp.solve until it drove HiGHS directly)
# ----------------------------------------------------------------------
#: scipy's ``OptimizeResult.status`` codes that are an answer, not a failure.
_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


def linprog_solve(c, A_ub, b_ub, A_eq, b_eq, bounds, integrality=None) -> Solution:  # noqa: N803
    """``repro.lp.solve`` through :func:`scipy.optimize.linprog` / ``milp``."""
    from scipy import optimize

    if len(c) == 0:
        raise SolverError("program has no variables")
    bounds = np.asarray(bounds, dtype=np.float64)
    if integrality is not None and np.any(integrality):
        constraints = []
        if A_ub is not None:
            constraints.append(optimize.LinearConstraint(A_ub, -np.inf, b_ub))
        if A_eq is not None:
            constraints.append(optimize.LinearConstraint(A_eq, b_eq, b_eq))
        result = optimize.milp(
            c,
            constraints=constraints,
            integrality=integrality,
            bounds=optimize.Bounds(bounds[:, 0], bounds[:, 1]),
        )
    else:
        result = optimize.linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs"
        )
    status = _STATUS.get(result.status)
    if status is None:
        raise SolverError(f"HiGHS failed: status={result.status} {result.message}")
    if status is not SolveStatus.OPTIMAL:
        return Solution(status, float("nan"), np.empty(0))
    return Solution(status, float(result.fun), result.x)


# ----------------------------------------------------------------------
# lowering (the seed's repro.lp.solver)
# ----------------------------------------------------------------------
def matrices(program: LinearProgram):
    """``(c, A_ub, b_ub, A_eq, b_eq, bounds, integrality)`` of a program.

    Constraints split into ``A_ub x <= b_ub`` and ``A_eq x == b_eq`` (CSR) in
    the order they were added; bounds as an ``(n, 2)`` array with ``±inf``
    for None; a maximization is returned negated.
    """
    ub_rows: list[dict[int, float]] = []
    ub_rhs: list[float] = []
    eq_rows: list[dict[int, float]] = []
    eq_rhs: list[float] = []
    for spec in program.constraints:
        coefs = spec.expr.coefs
        rhs = -spec.expr.constant
        if spec.sense == "<=":
            ub_rows.append(coefs)
            ub_rhs.append(rhs)
        elif spec.sense == ">=":
            ub_rows.append({index: -coef for index, coef in coefs.items()})
            ub_rhs.append(-rhs)
        else:
            eq_rows.append(coefs)
            eq_rhs.append(rhs)

    def to_sparse(rows: list[dict[int, float]]):
        data: list[float] = []
        row_idx: list[int] = []
        col_idx: list[int] = []
        for row, coefs in enumerate(rows):
            for col, coef in coefs.items():
                row_idx.append(row)
                col_idx.append(col)
                data.append(coef)
        return sparse.csr_matrix(
            (data, (row_idx, col_idx)), shape=(len(rows), program.num_vars)
        )

    cost = np.zeros(program.num_vars)
    for index, coef in program.objective.coefs.items():
        cost[index] = coef
    bounds = np.array(
        [
            (-np.inf if v.low is None else v.low, np.inf if v.high is None else v.high)
            for v in program.variables
        ],
        dtype=np.float64,
    ).reshape(-1, 2)
    integrality = np.array([int(v.integer) for v in program.variables])
    return (
        cost if program.minimize else -cost,
        to_sparse(ub_rows), np.array(ub_rhs), to_sparse(eq_rows), np.array(eq_rhs),
        bounds, integrality,
    )  # fmt: skip


def solve_program(program: LinearProgram) -> Solution:
    """Lower ``program`` and solve it with :func:`repro.lp.solve`."""
    if program.num_vars == 0:
        raise SolverError(f"program {program.name!r} has no variables")
    cost, a_ub, b_ub, a_eq, b_eq, bounds, integrality = matrices(program)
    return solve(
        cost,
        a_ub if a_ub.shape[0] else None,
        b_ub if a_ub.shape[0] else None,
        a_eq if a_eq.shape[0] else None,
        b_eq if a_eq.shape[0] else None,
        bounds,
        integrality,
    )


# ----------------------------------------------------------------------
# the three MCF programs (the seed's repro.routing.split)
# ----------------------------------------------------------------------
@dataclass
class McfModel:
    """A built (but unsolved) MCF program plus its variable bookkeeping."""

    program: LinearProgram
    flow_vars: dict[tuple[int, LinkKey], Variable]
    commodities: list[Commodity]
    topology: NoCTopology

    def extract_routing(self, solution: Solution, algorithm: str) -> RoutingResult:
        """Walk every flow variable of an optimal solution into a RoutingResult."""
        flows: dict[int, dict[LinkKey, float]] = {c.index: {} for c in self.commodities}
        for (index, link), variable in self.flow_vars.items():
            amount = float(solution.x[variable.index])
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
) -> McfModel:
    """Flow variables and per-commodity conservation constraints (Equation 5)."""
    if not commodities:
        raise RoutingError("cannot build an MCF over zero commodities")
    program = LinearProgram(name=name)
    flow_vars: dict[tuple[int, LinkKey], Variable] = {}
    for commodity in commodities:
        for link in _allowed_links(topology, commodity, quadrant_only):
            flow_vars[(commodity.index, link)] = program.add_var(
                f"x[{commodity.index},{link[0]}->{link[1]}]", low=0.0
            )
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
    return McfModel(program, flow_vars, list(commodities), topology)


def _loads_by_link(model: McfModel) -> dict[LinkKey, list[Variable]]:
    by_link: dict[LinkKey, list[Variable]] = {}
    for (_index, link), variable in model.flow_vars.items():
        by_link.setdefault(link, []).append(variable)
    return by_link


def mcf1_model(topology, commodities, quadrant_only=False) -> McfModel:
    """MCF1 (Equation 8): one slack per loaded link, minimize their sum."""
    model = build_mcf_model(topology, commodities, quadrant_only, name="mcf1")
    program = model.program
    slack_vars = []
    for link, variables in sorted(_loads_by_link(model).items()):
        slack = program.add_var(f"s[{link[0]}->{link[1]}]", low=0.0)
        slack_vars.append(slack)
        capacity = topology.link_bandwidth(*link)
        program.add_constraint(lin_sum(variables) - slack <= capacity)
    program.set_objective(lin_sum(slack_vars))
    return model


def mcf2_model(topology, commodities, quadrant_only=False, capacity=None) -> McfModel:
    """MCF2 (Equation 9): hard capacities, minimize total flow.

    ``capacity`` overrides every link's bandwidth with one value — which is
    min-congestion's second phase (``lambda*`` plus a hair).
    """
    model = build_mcf_model(topology, commodities, quadrant_only, name="mcf2")
    program = model.program
    for link, variables in sorted(_loads_by_link(model).items()):
        program.add_constraint(
            lin_sum(variables)
            <= (topology.link_bandwidth(*link) if capacity is None else capacity)
        )
    program.set_objective(lin_sum(list(model.flow_vars.values())))
    return model


def min_congestion_model(topology, commodities, quadrant_only=False) -> McfModel:
    """Min-congestion phase 1: every link load <= lambda, minimize lambda."""
    model = build_mcf_model(topology, commodities, quadrant_only, name="min-congestion")
    program = model.program
    lam = program.add_var("lambda", low=0.0)
    for _link, variables in sorted(_loads_by_link(model).items()):
        program.add_constraint(lin_sum(variables) - lam <= 0.0)
    program.set_objective(lam)
    return model


def _split_name(quadrant_only: bool) -> str:
    return "mcf-split-minpath" if quadrant_only else "mcf-split"


def object_built_mcf1(topology, commodities, quadrant_only=False):
    """The seed's ``solve_mcf1``."""
    model = mcf1_model(topology, commodities, quadrant_only)
    solution = solve_program(model.program)
    if not solution.is_optimal:
        raise RoutingError(f"MCF1 unexpectedly {solution.status.value}")
    return max(0.0, solution.objective), model.extract_routing(
        solution, _split_name(quadrant_only)
    )


def object_built_mcf2(topology, commodities, quadrant_only=False):
    """The seed's ``solve_mcf2``."""
    model = mcf2_model(topology, commodities, quadrant_only)
    solution = solve_program(model.program)
    if not solution.is_optimal:
        return None
    return solution.objective, model.extract_routing(
        solution, _split_name(quadrant_only)
    )


def object_built_min_congestion(
    topology, commodities, quadrant_only=False, minimize_flow_secondary=True
):
    """The seed's ``solve_min_congestion``: the whole model rebuilt for phase 2."""
    model = min_congestion_model(topology, commodities, quadrant_only)
    solution = solve_program(model.program)
    if not solution.is_optimal:
        raise RoutingError(f"min-congestion LP unexpectedly {solution.status.value}")
    lambda_star = solution.objective
    if not minimize_flow_secondary:
        return lambda_star, model.extract_routing(solution, "min-congestion")
    cap = lambda_star * (1.0 + 1e-9) + 1e-9
    model2 = mcf2_model(topology, commodities, quadrant_only, capacity=cap)
    solution2 = solve_program(model2.program)
    if not solution2.is_optimal:
        return lambda_star, model.extract_routing(solution, "min-congestion")
    return lambda_star, model2.extract_routing(solution2, "min-congestion")
