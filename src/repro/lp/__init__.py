"""Linear-programming back end (substitute for the paper's ``lp_solve``).

A program is its arrays — objective ``c``, ``A_ub x <= b_ub``,
``A_eq x == b_eq`` and an ``(n, 2)`` bounds array — and :func:`solve` hands
them to HiGHS through :func:`scipy.optimize.linprog`, or
:func:`scipy.optimize.milp` when some variable is integer.  The callers
(:mod:`repro.routing.split`, :mod:`repro.routing.ilp`) assemble those arrays
directly; there is no modelling layer in between.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError

__all__ = ["Solution", "SolveStatus", "solve"]


class SolveStatus(enum.Enum):
    """Normalized solver outcome."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


#: scipy's ``OptimizeResult.status`` codes that are an answer, not a failure.
_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


@dataclass(frozen=True)
class Solution:
    """Result of :func:`solve`.

    Attributes:
        status: normalized outcome.
        objective: optimal ``c @ x`` (NaN unless ``status`` is OPTIMAL).
        x: optimal value per variable (empty unless OPTIMAL).
    """

    status: SolveStatus
    objective: float
    x: np.ndarray

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


def solve(c, A_ub, b_ub, A_eq, b_eq, bounds, integrality=None) -> Solution:  # noqa: N803
    """Minimize ``c @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x == b_eq``.

    Args:
        c: objective coefficients, one per variable.
        A_ub, b_ub: inequality rows (scipy sparse or dense), or None for none.
        A_eq, b_eq: equality rows, or None for none.
        bounds: ``(n, 2)`` array of lower / upper bounds (``±inf`` = free).
        integrality: per variable, 1 = integer, 0 = continuous; None or all
            zero solves a plain LP.

    Returns:
        A :class:`Solution`; infeasibility/unboundedness is reported in the
        status rather than raised, because MCF1's whole point is to measure
        how infeasible a mapping is.

    Raises:
        SolverError: on a program without variables or a backend failure.
    """
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
