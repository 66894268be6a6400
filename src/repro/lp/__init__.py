"""Linear-programming back end (substitute for the paper's ``lp_solve``).

A program is its arrays — objective ``c``, ``A_ub x <= b_ub``,
``A_eq x == b_eq`` and an ``(n, 2)`` bounds array — and :func:`solve` is the
one place that hands them to HiGHS.  It fills one column-wise ``HighsLp``
(rows ``-inf / b_eq <= [A_ub; A_eq] x <= b_ub / b_eq``) and runs scipy's
bundled HiGHS core, ``scipy.optimize._highspy._core``, directly: the model
and the options scipy's public LP / MILP wrappers would hand it, without
their input cleaning, per-option validation, dual and marginal read-back and
result assembly, none of which the callers read.  The core is private to
scipy, so ``tests/properties/test_seed_oracles.py`` holds every answer to
the public call it replaced (kept in ``tests/reference/lp.py``).  The
callers (:mod:`repro.routing.split`, :mod:`repro.routing.ilp`) assemble the
arrays directly; there is no modelling layer in between.
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


#: scipy's post-solve feasibility tolerance for LPs, ``sqrt(tol) * 10`` at its
#: default ``tol = 1e-9``.  An "optimal" answer outside it is a failure.
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10


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


def _vector(values, name: str) -> np.ndarray:
    array = np.asarray([] if values is None else values, dtype=np.float64).reshape(-1)
    if not np.isfinite(array).all():
        raise SolverError(f"{name} must be finite")
    return array


def _rows(A_ub, A_eq, n: int):  # noqa: N803
    """``[A_ub; A_eq]`` as CSC, stacked the way scipy's LP wrapper stacks them."""
    from scipy import sparse

    blocks = [np.zeros((0, n)) if a is None else a for a in (A_ub, A_eq)]
    if any(sparse.issparse(block) for block in blocks):
        stacked = sparse.vstack(blocks)
    else:
        stacked = np.vstack(blocks)
    matrix = sparse.csc_array(stacked, dtype=np.float64)
    if not np.isfinite(matrix.data).all():
        raise SolverError("A_ub and A_eq must be finite")
    return matrix


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
        SolverError: on a program without variables, non-finite or
            mis-shaped arrays, or a HiGHS failure — any other model status,
            or an "optimal" answer that breaks its own bounds or rows.
    """
    from scipy.optimize._highspy import _core as highs

    c = _vector(c, "c")
    n = len(c)
    if n == 0:
        raise SolverError("program has no variables")
    b_ub, b_eq = _vector(b_ub, "b_ub"), _vector(b_eq, "b_eq")
    matrix = _rows(A_ub, A_eq, n)
    bounds = np.asarray(bounds, dtype=np.float64)
    if matrix.shape != (len(b_ub) + len(b_eq), n) or bounds.shape != (n, 2):
        raise SolverError(
            f"{n} variables, a {matrix.shape} constraint matrix, "
            f"{len(b_ub)} + {len(b_eq)} right-hand sides and {bounds.shape} bounds "
            "do not fit together"
        )
    if np.isnan(bounds).any():
        raise SolverError("bounds must not be NaN")
    is_mip = integrality is not None and np.any(integrality)
    inf = highs.kHighsInf
    rhs = np.concatenate((b_ub, b_eq))

    # pybind11 copies a list into a std::vector ~2x faster than an ndarray.
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(rhs)
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr.tolist()
    lp.a_matrix_.index_ = matrix.indices.tolist()
    lp.a_matrix_.value_ = matrix.data.tolist()
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = np.clip(bounds[:, 0], -inf, inf).tolist()
    lp.col_upper_ = np.clip(bounds[:, 1], -inf, inf).tolist()
    lp.row_lower_ = np.concatenate((np.full(len(b_ub), -inf), b_eq)).tolist()
    lp.row_upper_ = rhs.tolist()
    if is_mip:
        kinds = np.broadcast_to(integrality, n).astype(np.uint8)
        lp.integrality_ = [highs.HighsVarType(kind) for kind in kinds.tolist()]

    solver = highs._Highs()
    solver.setOptionValue("presolve", "on")
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("log_to_console", False)
    if not is_mip:  # scipy asks for dual simplex on an LP, HiGHS's choice on a MILP
        solver.setOptionValue(
            "simplex_strategy", highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
    model = highs.HighsModelStatus
    if solver.passModel(lp) == highs.HighsStatus.kError:
        status = model.kModelError
    else:
        solver.run()
        status = solver.getModelStatus()
    if status in (model.kInfeasible, model.kModelError):
        return Solution(SolveStatus.INFEASIBLE, float("nan"), np.empty(0))
    if status == model.kUnbounded:
        return Solution(SolveStatus.UNBOUNDED, float("nan"), np.empty(0))
    if status != model.kOptimal:
        raise SolverError(f"HiGHS failed: {solver.modelStatusToString(status)}")

    solution = solver.getSolution()
    x = np.array(solution.col_value)
    objective = solver.getInfo().objective_function_value
    slack = rhs - np.array(solution.row_value)
    tol, m = _FEASIBILITY_TOL, len(b_ub)
    # Written so that a NaN anywhere compares False and reads as infeasible.
    feasible = (
        not np.isnan(objective)
        and np.all((x >= bounds[:, 0] - tol) & (x <= bounds[:, 1] + tol))
        and np.all(slack[:m] >= -tol)
        and np.all(np.abs(slack[m:]) <= tol)
    )
    if not feasible:
        raise SolverError(
            f"HiGHS reported an optimum that breaks its bounds or rows by more than {tol:.2e}"
        )
    return Solution(SolveStatus.OPTIMAL, float(objective), x)
