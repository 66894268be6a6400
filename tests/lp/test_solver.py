"""Unit tests for ``repro.lp.solve``: arrays in, a normalized Solution out."""

from __future__ import annotations

import types

import numpy as np
import pytest
from scipy import sparse

from repro.errors import SolverError
from repro.lp import SolveStatus, solve

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

    def test_sparse_rows_and_bounds_array(self):
        """The form ``routing.split`` hands over: CSR float64, (n, 2) bounds."""
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

    def test_mismatched_shapes_are_rejected(self):
        with pytest.raises(SolverError, match="do not fit together"):
            solve([1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0], None, None, [(0.0, INF)] * 2)

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
