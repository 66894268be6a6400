"""Lowering :class:`~repro.lp.model.LinearProgram` to scipy's HiGHS solvers.

Pure LPs go through :func:`scipy.optimize.linprog`; programs with integer
variables go through :func:`scipy.optimize.milp`.  Both receive sparse
constraint matrices, so the mesh-sized MCF programs (a few thousand
variables) solve in milliseconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.lp.model import LinearProgram


class SolveStatus(enum.Enum):
    """Normalized solver outcome."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class Solution:
    """Result of solving a :class:`LinearProgram`.

    Attributes:
        status: normalized outcome.
        objective: objective value including the expression's constant term
            (meaningful only when ``status`` is OPTIMAL).
        values: optimal value per variable index.
    """

    status: SolveStatus
    objective: float
    values: tuple[float, ...]

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def value_of(self, variable) -> float:  # noqa: ANN001 - Variable, avoids import cycle
        """Optimal value of a variable (by its ``index``)."""
        return self.values[variable.index]


def _build_matrices(program: LinearProgram):
    """Split constraints into A_ub x <= b_ub and A_eq x == b_eq (sparse)."""
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
        elif spec.sense == "==":
            eq_rows.append(coefs)
            eq_rhs.append(rhs)
        else:  # pragma: no cover - ConstraintSpec only produces these senses
            raise SolverError(f"unknown constraint sense {spec.sense!r}")

    from scipy import sparse

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

    return to_sparse(ub_rows), np.array(ub_rhs), to_sparse(eq_rows), np.array(eq_rhs)


def _objective_vector(program: LinearProgram) -> np.ndarray:
    vector = np.zeros(program.num_vars)
    for index, coef in program.objective.coefs.items():
        vector[index] = coef
    if not program.minimize:
        vector = -vector
    return vector


def _finish(program: LinearProgram, status: SolveStatus, x, objective: float) -> Solution:
    if status is not SolveStatus.OPTIMAL:
        return Solution(status=status, objective=float("nan"), values=())
    value = objective + program.objective.constant
    if not program.minimize:
        value = -objective + program.objective.constant
    return Solution(status=status, objective=float(value), values=tuple(float(v) for v in x))


def solve(program: LinearProgram) -> Solution:
    """Solve a linear or mixed-integer program.

    Args:
        program: the model to solve; must have at least one variable.

    Returns:
        A :class:`Solution`; infeasibility/unboundedness is reported in the
        status rather than raised, because MCF1's whole point is to measure
        how infeasible a mapping is.

    Raises:
        SolverError: on empty programs or unexpected backend failures.
    """
    if program.num_vars == 0:
        raise SolverError(f"program {program.name!r} has no variables")
    a_ub, b_ub, a_eq, b_eq = _build_matrices(program)
    cost = _objective_vector(program)
    bounds = program.bounds()

    if program.has_integer_vars:
        return _solve_milp(program, cost, a_ub, b_ub, a_eq, b_eq)

    from scipy import optimize

    result = optimize.linprog(
        cost,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if len(b_eq) else None,
        bounds=bounds,
        method="highs",
    )
    if result.status == 0:
        return _finish(program, SolveStatus.OPTIMAL, result.x, float(result.fun))
    if result.status == 2:
        return _finish(program, SolveStatus.INFEASIBLE, None, 0.0)
    if result.status == 3:
        return _finish(program, SolveStatus.UNBOUNDED, None, 0.0)
    raise SolverError(
        f"linprog failed on {program.name!r}: status={result.status} {result.message}"
    )


def _solve_milp(program: LinearProgram, cost, a_ub, b_ub, a_eq, b_eq) -> Solution:
    from scipy import optimize

    constraints = []
    if a_ub.shape[0]:
        constraints.append(optimize.LinearConstraint(a_ub, -np.inf, b_ub))
    if a_eq.shape[0]:
        constraints.append(optimize.LinearConstraint(a_eq, b_eq, b_eq))
    integrality = np.array(
        [1 if variable.integer else 0 for variable in program.variables]
    )
    lower = np.array(
        [-np.inf if variable.low is None else variable.low for variable in program.variables]
    )
    upper = np.array(
        [np.inf if variable.high is None else variable.high for variable in program.variables]
    )
    result = optimize.milp(
        cost,
        constraints=constraints,
        integrality=integrality,
        bounds=optimize.Bounds(lower, upper),
    )
    if result.status == 0:
        return _finish(program, SolveStatus.OPTIMAL, result.x, float(result.fun))
    if result.status == 2:
        return _finish(program, SolveStatus.INFEASIBLE, None, 0.0)
    if result.status == 3:  # pragma: no cover - unbounded MILPs not built here
        return _finish(program, SolveStatus.UNBOUNDED, None, 0.0)
    raise SolverError(
        f"milp failed on {program.name!r}: status={result.status} {result.message}"
    )
