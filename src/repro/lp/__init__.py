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
arrays directly, the constraint rows as :class:`Coo` triples; there is no
modelling layer in between.

Nothing here imports scipy: :func:`highs_core` loads the one extension
module by path, without running ``scipy.optimize``'s package ``__init__``
(~70 MB and ~0.8 s of modules no caller uses), and :func:`_columns` builds
the column-wise matrix with numpy — the arrays ``scipy.sparse.csc_array``
of the stacked blocks would hold, entry for entry.
"""

from __future__ import annotations

import enum
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from typing import NamedTuple

import numpy as np

from repro.errors import SolverError

__all__ = ["Coo", "Solution", "SolveStatus", "highs_core", "solve"]


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


class Coo(NamedTuple):
    """A block of constraint rows as coordinates: ``data[k]`` sits at
    ``(row[k], col[k])``.  Duplicates add up and explicit zeros stay, as in
    ``scipy.sparse.coo_array((data, (row, col)))``; the block's shape is
    implied by its right-hand side and the number of variables."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray


#: The extension module :func:`highs_core` loads, under its canonical name.
_CORE = "scipy.optimize._highspy._core"
_core_lock = threading.Lock()


def highs_core():
    """scipy's bundled HiGHS core, ``scipy.optimize._highspy._core``.

    The module is loaded from its file under the installed scipy (found with
    ``importlib.util.find_spec("scipy")``, which imports nothing) and
    registered in ``sys.modules`` under its canonical name, so a later
    ``import scipy.optimize`` reuses it, and one scipy already imported is
    reused here.

    Raises:
        SolverError: when no installed scipy ships the core (scipy >= 1.15
            does) or it fails to load.
    """
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    with _core_lock:
        core = sys.modules.get(_CORE)
        return core if core is not None else _load_core()


def _load_core():
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy is not None else None
    for root in roots or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if not os.path.isfile(path):
                continue
            spec = importlib.util.spec_from_file_location(_CORE, path)
            try:
                module = importlib.util.module_from_spec(spec)
                sys.modules[_CORE] = module
                spec.loader.exec_module(module)
            except ImportError as exc:
                sys.modules.pop(_CORE, None)
                raise SolverError(f"scipy's HiGHS core at {path} failed to load: {exc}") from exc
            return module
    raise SolverError(
        f"no {_CORE} found: the LP back end needs scipy >= 1.15 installed"
    )


def _entries(block, rows: int, n: int):
    """One block's stored entries as ``(row, col, data)``, or None when its
    shape is not ``(rows, n)``.

    None is a block of no rows.  A :class:`Coo` is taken as it is; anything
    with ``tocoo()`` (a scipy sparse matrix or array) through it, explicit
    zeros and duplicates included; anything else is dense and gives its
    nonzeros.
    """
    if block is None:
        none = np.zeros(0, dtype=np.int64)
        return (none, none, np.zeros(0)) if rows == 0 else None
    if isinstance(block, Coo):
        row, col = (np.asarray(index, dtype=np.int64).reshape(-1) for index in block[:2])
        data = np.asarray(block.data, dtype=np.float64).reshape(-1)
        fits = (
            len(row) == len(col) == len(data)
            and np.all((row >= 0) & (row < rows))
            and np.all((col >= 0) & (col < n))
        )
        return (row, col, data) if fits else None
    if hasattr(block, "tocoo"):
        coo = block.tocoo()
        entries, shape = (coo.row, coo.col, coo.data), coo.shape
    else:
        dense = np.atleast_2d(np.asarray(block, dtype=np.float64))
        row, col = np.nonzero(dense)
        entries, shape = (row, col, dense[row, col]), dense.shape
    if tuple(shape) != (rows, n):
        return None
    row, col, data = entries
    return row.astype(np.int64), col.astype(np.int64), data.astype(np.float64)


def _columns(A_ub, A_eq, ub_rows: int, eq_rows: int, n: int):  # noqa: N803
    """``[A_ub; A_eq]`` as CSC ``(start, index, value)`` — entries sorted by
    column, then row, duplicates summed, explicit zeros kept: the arrays of
    ``scipy.sparse.csc_array`` of the stacked blocks — or None when a block
    is not ``(ub_rows, n)`` / ``(eq_rows, n)``."""
    blocks = _entries(A_ub, ub_rows, n), _entries(A_eq, eq_rows, n)
    if None in blocks:
        return None
    (ub_row, ub_col, ub_data), (eq_row, eq_col, eq_data) = blocks
    row = np.concatenate((ub_row, eq_row + ub_rows))
    col = np.concatenate((ub_col, eq_col))
    data = np.concatenate((ub_data, eq_data))
    order = np.lexsort((row, col))
    row, col, data = row[order], col[order], data[order]
    if len(data) > 1:
        first = np.ones(len(data), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        if not first.all():
            starts = np.flatnonzero(first)
            row, col, data = row[starts], col[starts], np.add.reduceat(data, starts)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=n), out=start[1:])
    return start, row, data


def solve(c, A_ub, b_ub, A_eq, b_eq, bounds, integrality=None) -> Solution:  # noqa: N803
    """Minimize ``c @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x == b_eq``.

    Args:
        c: objective coefficients, one per variable.
        A_ub, b_ub: inequality rows (a :class:`Coo`, scipy sparse or
            dense), or None for none.
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
    highs = highs_core()
    c = _vector(c, "c")
    n = len(c)
    if n == 0:
        raise SolverError("program has no variables")
    b_ub, b_eq = _vector(b_ub, "b_ub"), _vector(b_eq, "b_eq")
    matrix = _columns(A_ub, A_eq, len(b_ub), len(b_eq), n)
    bounds = np.asarray(bounds, dtype=np.float64)
    if matrix is None or bounds.shape != (n, 2):
        raise SolverError(
            f"{n} variables, constraint blocks for {len(b_ub)} + {len(b_eq)} "
            f"right-hand sides and {bounds.shape} bounds do not fit together"
        )
    start, index, value = matrix
    if not np.isfinite(value).all():
        raise SolverError("A_ub and A_eq must be finite")
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
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = index.tolist()
    lp.a_matrix_.value_ = value.tolist()
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
