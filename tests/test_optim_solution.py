"""Tests for the Solution / SolveStatus objects and solver option plumbing."""

import pytest

from repro.optim import Model, Solution, SolveStatus, lin_sum
from repro.optim import scipy_backend
from repro.optim.errors import NoIncumbentError

needs_scipy = pytest.mark.skipif(
    not scipy_backend.is_available(), reason="requests the scipy backend explicitly"
)


class TestSolveStatus:
    def test_is_optimal_flag(self):
        assert SolveStatus.OPTIMAL.is_optimal
        for status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED, SolveStatus.NODE_LIMIT):
            assert not status.is_optimal


class TestSolution:
    def test_value_and_nonzeros(self):
        solution = Solution(
            status=SolveStatus.OPTIMAL,
            objective=3.0,
            values={"x": 1.0, "y": 0.0, "z": 1e-12},
        )
        assert solution.value("x") == 1.0
        assert solution.nonzeros() == {"x": 1.0}
        assert solution.as_dict() == {"x": 1.0, "y": 0.0, "z": 1e-12}
        with pytest.raises(KeyError):
            solution.value("missing")

    def test_reading_a_solution_without_a_point_raises_a_typed_error(self):
        model = Model("limit", sense="min")
        x, y = model.add_var("x"), model.add_var("y")
        model.attach_solution(Solution(status=SolveStatus.TIME_LIMIT))
        for read in (lambda: model.value(x), lambda: model.value(x + 2 * y)):
            with pytest.raises(NoIncumbentError, match="time_limit"):
                read()

    def test_default_fields(self):
        solution = Solution(status=SolveStatus.INFEASIBLE)
        assert solution.objective is None
        assert solution.values == {}
        assert not solution.is_optimal


class TestSolverOptions:
    def _placement_like_model(self) -> Model:
        model = Model("options", sense="min")
        xs = [model.add_var(f"x{i}", vartype="binary") for i in range(6)]
        for i in range(5):
            model.add_constr(xs[i] + xs[i + 1] >= 1)
        model.set_objective(lin_sum(xs))
        return model

    @needs_scipy
    def test_time_limit_option_accepted(self):
        model = self._placement_like_model()
        solution = model.solve(backend="scipy", time_limit=10.0)
        assert solution.objective == pytest.approx(3.0)

    @needs_scipy
    def test_mip_gap_option_accepted(self):
        model = self._placement_like_model()
        solution = model.solve(backend="scipy", mip_gap=0.05)
        assert solution.objective is not None
        assert solution.objective <= 3.0 * 1.05 + 1e-9

    def test_branch_and_bound_max_nodes_option(self):
        model = self._placement_like_model()
        solution = model.solve(backend="branch-and-bound", max_nodes=1000)
        assert solution.objective == pytest.approx(3.0)
