"""Tests for the LP/MILP modelling layer (repro.optim.model)."""

import math

import pytest

from repro.optim import Constraint, Model, lin_sum, scipy_backend
from repro.optim.errors import ModelError


class TestVariable:
    def test_default_bounds(self):
        m = Model()
        x = m.add_var("x")
        assert x.lb == 0.0
        assert math.isinf(x.ub)
        assert x.vartype == "continuous"
        assert not x.is_integer

    def test_binary_bounds_are_clamped(self):
        m = Model()
        b = m.add_var("b", vartype="binary")
        assert (b.lb, b.ub) == (0.0, 1.0)
        fixed = m.add_var("b1", lb=1.0, ub=1.0, vartype="binary")
        assert (fixed.lb, fixed.ub) == (1.0, 1.0)

    def test_integer_flag(self):
        m = Model()
        assert m.add_var("i", vartype="integer").is_integer
        assert m.add_var("b", vartype="binary").is_integer

    def test_invalid_vartype_rejected(self):
        m = Model()
        with pytest.raises(ModelError):
            m.add_var("x", vartype="boolean")

    def test_inconsistent_bounds_rejected(self):
        m = Model()
        with pytest.raises(ModelError):
            m.add_var("x", lb=2.0, ub=1.0)

    def test_duplicate_name_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ModelError):
            m.add_var("x")

    def test_get_var(self):
        m = Model()
        x = m.add_var("x")
        assert m.get_var("x") is x
        with pytest.raises(ModelError):
            m.get_var("missing")


class TestLinExpr:
    def test_addition_and_scaling(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        expr = 2 * x + 3 * y + 1 - y
        assert expr.terms[x] == 2
        assert expr.terms[y] == 2
        assert expr.constant == 1

    def test_subtraction_and_negation(self):
        m = Model()
        x = m.add_var("x")
        expr = 5 - 2 * x
        assert expr.terms[x] == -2
        assert expr.constant == 5
        neg = -expr
        assert neg.terms[x] == 2
        assert neg.constant == -5

    def test_division(self):
        m = Model()
        x = m.add_var("x")
        expr = (4 * x + 2) / 2
        assert expr.terms[x] == 2
        assert expr.constant == 1
        with pytest.raises(ZeroDivisionError):
            (x + 1) / 0

    def test_lin_sum_matches_manual_sum(self):
        m = Model()
        xs = [m.add_var(f"x{i}") for i in range(10)]
        expr = lin_sum(2 * x for x in xs)
        assert all(expr.terms[x] == 2 for x in xs)
        assert expr.constant == 0

    def test_value_evaluation(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        expr = 3 * x - y + 4
        assert expr.value({"x": 2, "y": 1}) == pytest.approx(9.0)

    def test_scalar_multiplication_only(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        with pytest.raises(TypeError):
            (x + 1) * (y + 1)


class TestConstraint:
    def test_le_constraint_rhs(self):
        m = Model()
        x = m.add_var("x")
        c = x + 3 <= 10
        assert isinstance(c, Constraint)
        assert c.sense == "<="
        assert c.rhs == pytest.approx(7.0)

    def test_ge_and_eq(self):
        m = Model()
        x = m.add_var("x")
        assert (x >= 2).sense == ">="
        assert (x == 2).sense == "=="

    def test_is_satisfied(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        c = x + 2 * y <= 4
        assert c.is_satisfied({"x": 1, "y": 1})
        assert not c.is_satisfied({"x": 5, "y": 1})
        eq = x - y == 0
        assert eq.is_satisfied({"x": 2, "y": 2})
        assert not eq.is_satisfied({"x": 2, "y": 1})


class TestModel:
    def test_counts_and_is_mip(self):
        m = Model("m")
        x = m.add_var("x")
        b = m.add_var("b", vartype="binary")
        m.add_constr(x + b <= 3)
        assert m.num_vars == 2
        assert m.num_constraints == 1
        assert m.num_integer_vars == 1
        assert m.is_mip

    def test_add_constr_requires_constraint(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ModelError):
            m.add_constr(True)  # type: ignore[arg-type]

    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_var("x")
        m2.add_var("y")
        with pytest.raises(ModelError):
            m2.add_constr(x >= 1)

    def test_objective_sense_validation(self):
        with pytest.raises(ModelError):
            Model(sense="maximize")
        m = Model()
        x = m.add_var("x")
        m.set_objective(x, sense="max")
        assert m.sense == "max"
        with pytest.raises(ModelError):
            m.set_objective(x, sense="biggest")

    def test_standard_form_shapes(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=4.0)
        y = m.add_var("y", vartype="integer", ub=3.0)
        m.add_constr(x + y <= 5)
        m.add_constr(x - y >= -1)
        m.add_constr(x + 2 * y == 4)
        m.set_objective(x + y + 1)
        form = m.to_standard_form()
        assert form.num_vars == 2
        assert form.A_ub.shape == (2, 2)
        assert form.A_eq.shape == (1, 2)
        assert form.maximize
        # Maximization is lowered to minimization by negating the costs.
        assert list(form.c) == [-1.0, -1.0]
        assert list(form.integrality) == [0, 1]

    def test_standard_form_objective_value_round_trip(self):
        m = Model(sense="max")
        x = m.add_var("x")
        m.set_objective(2 * x + 3)
        form = m.to_standard_form()
        assert form.objective_value([5.0]) == pytest.approx(13.0)

    def test_solution_access_before_solve(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ModelError):
            _ = m.solution

    def test_value_of_expression_after_solve(self):
        m = Model()
        x = m.add_var("x", lb=1.0, ub=1.0)
        m.set_objective(x)
        m.solve(backend="simplex")
        assert m.value(x) == pytest.approx(1.0)
        assert m.value("x") == pytest.approx(1.0)
        assert m.value(2 * x + 1) == pytest.approx(3.0)

    def test_check_feasible(self):
        m = Model()
        x = m.add_var("x", ub=2.0)
        b = m.add_var("b", vartype="binary")
        m.add_constr(x + b >= 1)
        assert m.check_feasible({"x": 1.0, "b": 0.0})
        assert not m.check_feasible({"x": 3.0, "b": 0.0})  # bound violated
        assert not m.check_feasible({"x": 1.0, "b": 0.5})  # integrality violated
        assert not m.check_feasible({"x": 0.0, "b": 0.0})  # constraint violated


_BACKENDS = [
    "simplex",
    "branch-and-bound",
    pytest.param(
        "scipy",
        marks=pytest.mark.skipif(
            not scipy_backend.is_available(), reason="SciPy not installed"
        ),
    ),
]


def _unit_box_max():
    """max x + y over x, y in [0, 1]; the caller adds the rows."""
    m = Model("box", sense="max")
    x = m.add_var("x", ub=1.0)
    y = m.add_var("y", ub=1.0)
    m.set_objective(x + y)
    return m, x, y


class TestNonFiniteData:
    """NaN and infinite data are rejected where they enter the model.

    ±inf variable bounds stay legal; every other non-finite datum would be
    silently dropped or misread by some layer below the model.
    """

    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("coeff", [math.inf, math.nan])
    def test_nonfinite_coefficient(self, backend, coeff):
        m, x, y = _unit_box_max()
        m.add_constr(coeff * x + y <= 1.0, name="row")
        with pytest.raises(ModelError, match="constraint 'row'"):
            m.solve(backend=backend, presolve="on")

    def test_nonfinite_coefficient_in_session(self):
        m, x, y = _unit_box_max()
        m.add_constr(math.inf * x + y <= 1.0, name="row")
        with pytest.raises(ModelError, match="constraint 'row'"):
            m.session(backend="simplex")

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_nan_rhs(self, backend):
        m, x, y = _unit_box_max()
        m.add_constr(x + y <= math.nan, name="row")
        with pytest.raises(ModelError, match="right-hand side"):
            m.solve(backend=backend)

    def test_nonfinite_objective_term(self):
        m, x, y = _unit_box_max()
        m.set_objective(x - math.inf * y)
        with pytest.raises(ModelError, match="objective"):
            m.to_standard_form()

    @pytest.mark.parametrize("vartype", ["continuous", "binary"])
    def test_nan_bound(self, vartype):
        m = Model()
        with pytest.raises(ModelError, match="NaN"):
            m.add_var("x", ub=math.nan, vartype=vartype)
        with pytest.raises(ModelError, match="NaN"):
            m.add_var("y", lb=math.nan, vartype=vartype)

    def test_infinite_bounds_stay_legal(self):
        m = Model()
        x = m.add_var("x", lb=-math.inf, ub=math.inf)
        assert (x.lb, x.ub) == (-math.inf, math.inf)

    def test_session_patches_reject_nonfinite_values(self):
        m, x, y = _unit_box_max()
        m.add_constr(x + y <= 1.5, name="row")
        session = m.session(backend="simplex")
        with pytest.raises(ModelError):
            session.update_constraint_coeff("row", x, math.inf)
        with pytest.raises(ModelError):
            session.update_constraint_rhs("row", math.nan)
        with pytest.raises(ModelError):
            session.update_objective_coeff(y, -math.inf)
        with pytest.raises(ModelError):
            session.update_var_bounds(x, lb=0.0, ub=math.nan)
        # Nothing was patched, and infinite bounds are still accepted.
        session.update_var_bounds(x, lb=-math.inf)
        solution = session.solve()
        assert solution.objective == pytest.approx(1.5)
