"""Unit tests for ``repro.lp.solve``: arrays in, a normalized Solution out."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import types
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro import lp
from repro.errors import SolverError
from repro.lp import Coo, SolveStatus, solve

INF = np.inf


class TestLinearPrograms:
    def test_simple_minimization(self):
        # min x + y  s.t. x >= 1, y >= 2 (as bounds)
        solution = solve([1.0, 1.0], None, None, None, None, [(1.0, INF), (2.0, INF)])
        assert solution.is_optimal
        assert solution.objective == pytest.approx(3.0)
        assert solution.x.tolist() == pytest.approx([1.0, 2.0])

    def test_constrained_optimum(self):
        # min x + 2y  s.t. x + y >= 4, x <= 3
        solution = solve(
            [1.0, 2.0],
            [[-1.0, -1.0], [1.0, 0.0]], [-4.0, 3.0],
            None, None,
            [(0.0, INF)] * 2,
        )  # fmt: skip
        assert solution.objective == pytest.approx(5.0)  # x=3, y=1

    def test_equality_constraint(self):
        solution = solve(
            [1.0, 0.0], None, None, [[1.0, 1.0]], [10.0], [(0.0, INF)] * 2
        )
        assert solution.x.tolist() == pytest.approx([0.0, 10.0])

    def test_coo_rows_and_bounds_array(self):
        """The form ``routing.split`` hands over: COO triples, (n, 2) bounds."""
        a_ub = Coo(np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]))
        a_eq = Coo(np.array([0, 0]), np.array([0, 1]), np.array([1.0, -1.0]))
        bounds = np.zeros((2, 2))
        bounds[:, 1] = INF
        solution = solve(
            np.array([-1.0, -1.0]), a_ub, np.array([6.0]), a_eq, np.array([2.0]), bounds
        )
        assert solution.objective == pytest.approx(-6.0)
        assert solution.x.tolist() == pytest.approx([4.0, 2.0])

    def test_sparse_rows_and_bounds_array(self):
        """scipy sparse rows, read through ``tocoo()``: CSR float64."""
        a_ub = sparse.csr_matrix(([1.0, 1.0], ([0, 0], [0, 1])), shape=(1, 2))
        a_eq = sparse.csr_matrix(([1.0, -1.0], ([0, 0], [0, 1])), shape=(1, 2))
        bounds = np.zeros((2, 2))
        bounds[:, 1] = INF
        solution = solve(
            np.array([-1.0, -1.0]), a_ub, np.array([6.0]), a_eq, np.array([2.0]), bounds
        )
        assert solution.objective == pytest.approx(-6.0)
        assert solution.x.tolist() == pytest.approx([4.0, 2.0])

    def test_infeasible_status(self):
        # x <= 1 (bound) and x >= 2 (row)
        solution = solve([1.0], [[-1.0]], [-2.0], None, None, [(0.0, 1.0)])
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.is_optimal

    def test_unbounded_status(self):
        solution = solve([1.0], None, None, None, None, [(-INF, INF)])
        assert solution.status is SolveStatus.UNBOUNDED

    def test_nonoptimal_has_no_values(self):
        solution = solve([1.0], [[-1.0]], [-2.0], None, None, [(0.0, 1.0)])
        assert solution.x.size == 0
        assert np.isnan(solution.objective)

    def test_empty_program_rejected(self):
        with pytest.raises(SolverError, match="no variables"):
            solve(np.zeros(0), None, None, None, None, np.zeros((0, 2)))


class TestMilp:
    BINARY = [(0.0, 1.0)] * 3

    def test_binary_knapsack(self):
        # max 3a + 4b + 2c  s.t. 2a + 3b + c <= 4, binary
        solution = solve(
            [-3.0, -4.0, -2.0], [[2.0, 3.0, 1.0]], [4.0], None, None, self.BINARY, [1, 1, 1]
        )
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-6.0)  # b + c
        assert solution.x.tolist() == pytest.approx([0.0, 1.0, 1.0])

    def test_integrality_enforced(self):
        # min x s.t. 2x >= 5: the LP relaxation picks 2.5, the MILP 3
        args = ([1.0], [[-2.0]], [-5.0], None, None, [(0.0, INF)])
        assert solve(*args).objective == pytest.approx(2.5)
        assert solve(*args, integrality=[0]).objective == pytest.approx(2.5)
        assert solve(*args, integrality=[1]).objective == pytest.approx(3.0)

    def test_mixed_integer_and_continuous(self):
        # x integer in [0, 10], y >= 0, x + y == 3.5, min y
        solution = solve(
            [0.0, 1.0], None, None, [[1.0, 1.0]], [3.5], [(0.0, 10.0), (0.0, INF)], [1, 0]
        )
        assert solution.x.tolist() == pytest.approx([3.0, 0.5])

    def test_infeasible_milp(self):
        solution = solve([1.0], [[-1.0]], [-2.0], None, None, [(0.0, 1.0)], [1])
        assert solution.status is SolveStatus.INFEASIBLE

    def test_equality_milp(self):
        # exactly one of four picks, cheapest first
        solution = solve(
            [1.0, 2.0, 3.0, 4.0], None, None, [[1.0] * 4], [1.0], [(0.0, 1.0)] * 4, [1] * 4
        )
        assert solution.objective == pytest.approx(1.0)


def _highs_reporting(monkeypatch, **overrides):
    """Run HiGHS for real, but let ``overrides[name](real)`` stand in for
    the method ``name`` of each solver ``solve`` builds."""
    from scipy.optimize._highspy import _core

    real = _core._Highs

    class Reporting:
        def __init__(self):
            self._real = real()

        def __getattr__(self, name):
            return overrides[name](self._real) if name in overrides else getattr(self._real, name)

    monkeypatch.setattr(_core, "_Highs", Reporting)
    return _core


class TestHighsCore:
    """What ``solve`` checks around the HiGHS call itself."""

    EQUALITY = ([1.0, 0.0], None, None, [[1.0, 1.0]], [10.0], [(0.0, INF)] * 2)

    @pytest.mark.parametrize(
        "program, name",
        [
            (([np.nan], None, None, None, None, [(0.0, 1.0)]), "c"),
            (([1.0], [[INF]], [1.0], None, None, [(0.0, 1.0)]), "A_ub and A_eq"),
            (([1.0], [[1.0]], [np.nan], None, None, [(0.0, 1.0)]), "b_ub"),
            (
                ([1.0], None, None, sparse.csr_matrix([[np.nan]]), [1.0], [(0.0, 1.0)]),
                "A_ub and A_eq",
            ),
            (([1.0], None, None, [[1.0]], [-INF], [(0.0, 1.0)]), "b_eq"),
            (([1.0], None, None, None, None, [(np.nan, 1.0)]), "bounds"),
        ],
    )
    def test_non_finite_input_is_named(self, program, name):
        with pytest.raises(SolverError, match=f"^{name} must"):
            solve(*program)

    @pytest.mark.parametrize(
        "a_ub, b_ub",
        [
            ([[1.0, 1.0]], [1.0, 2.0]),  # one row, two right-hand sides
            ([[1.0, 1.0, 1.0]], [1.0]),  # three columns, two variables
            (None, [1.0]),  # a right-hand side without its row
            (Coo([1], [0], [1.0]), [1.0]),  # an entry below the last row
            (Coo([0], [2], [1.0]), [1.0]),  # an entry right of the last column
            (Coo([0, 0], [0], [1.0]), [1.0]),  # triples of unequal length
            (sparse.csr_matrix([[1.0, 1.0]]), [1.0, 2.0]),
        ],
    )
    def test_mismatched_shapes_are_rejected(self, a_ub, b_ub):
        with pytest.raises(SolverError, match="do not fit together"):
            solve([1.0, 1.0], a_ub, b_ub, None, None, [(0.0, INF)] * 2)

    @pytest.mark.parametrize(
        "status", ["kUnboundedOrInfeasible", "kTimeLimit", "kIterationLimit", "kSolveError"]
    )
    def test_other_model_statuses_raise(self, monkeypatch, status):
        core = _highs_reporting(
            monkeypatch,
            getModelStatus=lambda _real: lambda: getattr(core.HighsModelStatus, status),
        )
        with pytest.raises(SolverError, match="HiGHS failed"):
            solve(*self.EQUALITY)

    def test_a_model_error_reads_as_infeasible(self, monkeypatch):
        core = _highs_reporting(
            monkeypatch, passModel=lambda _real: lambda _lp: core.HighsStatus.kError
        )
        assert solve(*self.EQUALITY).status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize(
        "col_value, row_shift",
        [([0.0, 10.0], 1e-3), ([0.0, 10.0], np.nan), ([-1e-3, 10.0], 0.0), ([np.nan, 10.0], 0.0)],
    )
    def test_an_optimum_off_its_rows_or_bounds_raises(self, monkeypatch, col_value, row_shift):
        def solution(real):
            def get():
                answer = real.getSolution()
                return types.SimpleNamespace(
                    col_value=col_value, row_value=[v + row_shift for v in answer.row_value]
                )

            return get

        _highs_reporting(monkeypatch, getSolution=solution)
        with pytest.raises(SolverError, match="breaks its bounds or rows"):
            solve(*self.EQUALITY)
        monkeypatch.undo()
        assert solve(*self.EQUALITY).x.tolist() == [0.0, 10.0]


@st.composite
def constraint_blocks(draw):
    """``(n, ub_rows, eq_rows, A_ub, A_eq)``: each block None (no rows), a
    :class:`Coo`, dense, or scipy COO / CSR; entries drawn with repeats and
    zeros, so duplicates, explicit zeros, empty blocks and empty columns all
    occur.  Values are small integers, so a sum of duplicates is exact in
    any order."""
    n = draw(st.integers(1, 5))
    values = st.integers(-2, 2).map(float)

    def block(rows):
        kinds = ["coo", "dense", "scipy-coo", "scipy-csr"] + ["none"] * (rows == 0)
        kind = draw(st.sampled_from(kinds))
        if kind == "none":
            return None
        if kind == "dense":
            cells = draw(st.lists(values, min_size=rows * n, max_size=rows * n))
            return np.array(cells).reshape(rows, n)
        entry = st.tuples(st.integers(0, rows - 1), st.integers(0, n - 1), values)
        entries = draw(st.lists(entry, max_size=12)) if rows else []
        row, col, data = (
            np.array([entry[i] for entry in entries], dtype=dtype)
            for i, dtype in enumerate((int, int, float))
        )
        if kind == "coo":
            return Coo(row, col, data)
        coo = sparse.coo_array((data, (row, col)), shape=(rows, n))
        return coo if kind == "scipy-coo" else sparse.csr_array(coo)

    ub_rows, eq_rows = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return n, ub_rows, eq_rows, block(ub_rows), block(eq_rows)


def _scipy_columns(n, ub_rows, eq_rows, a_ub, a_eq):
    """What ``solve`` handed HiGHS while it stacked the blocks with scipy:
    ``csc_array(vstack(...))``, a :class:`Coo` read as ``coo_array``."""
    blocks = [
        np.zeros((0, n))
        if block is None
        else sparse.coo_array((block.data, (block.row, block.col)), shape=(rows, n))
        if isinstance(block, Coo)
        else block
        for block, rows in ((a_ub, ub_rows), (a_eq, eq_rows))
    ]
    if any(sparse.issparse(block) for block in blocks):
        stacked = sparse.vstack(blocks)
    else:
        stacked = np.vstack(blocks)
    matrix = sparse.csc_array(stacked, dtype=np.float64)
    return matrix.indptr, matrix.indices, matrix.data


class TestColumns:
    """``solve`` builds the column-wise matrix with numpy; HiGHS must be
    handed the arrays scipy's ``csc_array`` of the stacked blocks held."""

    @given(constraint_blocks())
    @settings(max_examples=400, deadline=None)
    def test_the_csc_arrays_are_scipy_s(self, drawn):
        n, ub_rows, eq_rows, a_ub, a_eq = drawn
        produced = lp._columns(a_ub, a_eq, ub_rows, eq_rows, n)
        for mine, theirs in zip(produced, _scipy_columns(*drawn)):
            assert mine.tolist() == theirs.tolist()


#: Prints whether ``highs_core()`` and scipy's own import of the core are one
#: module, whichever loaded first, and that ``linprog`` still solves.
_LOAD_ORDER = """
import sys
from repro.lp import highs_core
if sys.argv[1] == "scipy-first":
    import scipy.optimize
    core = highs_core()
else:
    core = highs_core()
    assert "scipy.optimize" not in sys.modules and "scipy" not in sys.modules
    import scipy.optimize
from scipy.optimize._highspy import _core
assert scipy.optimize.linprog([1.0], bounds=[(2.0, 3.0)], method="highs").x.tolist() == [2.0]
print(core is _core is sys.modules["scipy.optimize._highspy._core"])
"""


class TestHighsLoader:
    """``highs_core`` loads scipy's HiGHS extension by path, without running
    ``scipy.optimize/__init__``, under its canonical module name."""

    @pytest.mark.parametrize("order", ["scipy-first", "core-first"])
    def test_one_module_whichever_loads_first(self, order):
        result = subprocess.run(
            [sys.executable, "-c", _LOAD_ORDER, order],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "True"

    def test_this_process_shares_scipy_s_module(self):
        from scipy.optimize._highspy import _core

        assert lp.highs_core() is _core

    def _without_core(self, monkeypatch, scipy_root):
        monkeypatch.delitem(sys.modules, lp._CORE)
        spec = None if scipy_root is None else types.SimpleNamespace(
            submodule_search_locations=[str(scipy_root)]
        )
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: spec)

    def test_no_scipy_is_a_solver_error(self, monkeypatch):
        self._without_core(monkeypatch, None)
        with pytest.raises(SolverError, match="needs scipy >= 1.15"):
            solve(*TestHighsCore.EQUALITY)

    def test_a_scipy_without_the_core_is_a_solver_error(self, monkeypatch, tmp_path):
        self._without_core(monkeypatch, tmp_path)
        with pytest.raises(SolverError, match="needs scipy >= 1.15"):
            solve(*TestHighsCore.EQUALITY)

    def test_a_core_that_fails_to_load_is_a_solver_error(self, monkeypatch, tmp_path):
        broken = tmp_path / "optimize" / "_highspy" / f"_core{EXTENSION_SUFFIXES[0]}"
        broken.parent.mkdir(parents=True)
        broken.write_bytes(b"not a shared object")
        self._without_core(monkeypatch, tmp_path)
        with pytest.raises(SolverError, match="failed to load"):
            solve(*TestHighsCore.EQUALITY)
        assert lp._CORE not in sys.modules
