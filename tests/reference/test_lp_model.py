"""Unit tests for the oracle's LP modeling layer (``tests/reference/lp.py``)."""

from __future__ import annotations

import pytest

from repro.errors import SolverError
from tests.reference.lp import ConstraintSpec, LinExpr, LinearProgram, lin_sum


class TestVariable:
    def test_add_var_defaults(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        assert x.low == 0.0
        assert x.high is None
        assert not x.integer

    def test_indices_sequential(self):
        lp = LinearProgram()
        assert [lp.add_var(f"v{i}").index for i in range(3)] == [0, 1, 2]

    def test_empty_bounds_rejected(self):
        lp = LinearProgram()
        with pytest.raises(SolverError, match="empty bounds"):
            lp.add_var("x", low=5.0, high=1.0)

    def test_repr(self):
        lp = LinearProgram()
        assert "x" in repr(lp.add_var("x"))


class TestExpressions:
    def setup_method(self):
        self.lp = LinearProgram()
        self.x = self.lp.add_var("x")
        self.y = self.lp.add_var("y")

    def test_addition(self):
        expr = self.x + self.y + 3.0
        assert expr.coefs == {0: 1.0, 1: 1.0}
        assert expr.constant == 3.0

    def test_subtraction(self):
        expr = self.x - self.y
        assert expr.coefs == {0: 1.0, 1: -1.0}

    def test_scaling(self):
        expr = 2 * self.x + self.y * 3
        assert expr.coefs == {0: 2.0, 1: 3.0}

    def test_negation(self):
        expr = -self.x
        assert expr.coefs == {0: -1.0}

    def test_rsub(self):
        expr = 5.0 - self.x
        assert expr.coefs == {0: -1.0}
        assert expr.constant == 5.0

    def test_coefficient_merge(self):
        expr = self.x + self.x + self.x
        assert expr.coefs == {0: 3.0}

    def test_invalid_operand(self):
        with pytest.raises(SolverError):
            self.x + "hello"  # type: ignore[operator]

    def test_invalid_scale(self):
        with pytest.raises(SolverError):
            (self.x + self.y) * self.x  # type: ignore[operator]

    def test_lin_sum(self):
        expr = lin_sum([self.x, 2 * self.y, 4.0])
        assert expr.coefs == {0: 1.0, 1: 2.0}
        assert expr.constant == 4.0

    def test_lin_sum_empty(self):
        expr = lin_sum([])
        assert expr.coefs == {}
        assert expr.constant == 0.0


class TestConstraints:
    def setup_method(self):
        self.lp = LinearProgram()
        self.x = self.lp.add_var("x")
        self.y = self.lp.add_var("y")

    def test_le_constraint(self):
        spec = self.x + self.y <= 10.0
        assert isinstance(spec, ConstraintSpec)
        assert spec.sense == "<="
        assert spec.expr.constant == -10.0

    def test_ge_constraint(self):
        spec = self.x >= 2.0
        assert spec.sense == ">="

    def test_equals(self):
        spec = (self.x - self.y).equals(5.0)
        assert spec.sense == "=="

    def test_add_constraint_registers(self):
        self.lp.add_constraint(self.x <= 4.0)
        assert self.lp.num_constraints == 1

    def test_add_constraint_rejects_non_spec(self):
        with pytest.raises(SolverError):
            self.lp.add_constraint(self.x)  # type: ignore[arg-type]

    def test_objective(self):
        self.lp.set_objective(self.x + 2 * self.y, minimize=False)
        assert not self.lp.minimize
        assert self.lp.objective.coefs == {0: 1.0, 1: 2.0}

    def test_has_integer_vars(self):
        assert not self.lp.has_integer_vars
        self.lp.add_var("b", high=1.0, integer=True)
        assert self.lp.has_integer_vars

    def test_repr_kind(self):
        assert "LP" in repr(self.lp)
        self.lp.add_var("b", integer=True)
        assert "MILP" in repr(self.lp)
