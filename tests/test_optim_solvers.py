"""Tests for the simplex, branch-and-bound and scipy backends.

The same set of reference problems is solved by every backend and checked
against known optima, so the in-house solvers are validated both in absolute
terms and against HiGHS.
"""

import math

import numpy as np
import pytest

from repro.optim import (
    Deadline,
    FaultPlan,
    Model,
    SolveStatus,
    available_backends,
    lin_sum,
    solve_model,
)
from repro.optim import branch_and_bound, faultinject, simplex
from repro.optim import instrumentation as instr
from repro.optim.branch_and_bound import solve_milp
from repro.optim.errors import InfeasibleError, SolverError, UnboundedError
from repro.optim.simplex import solve_standard_form
from repro.optim import scipy_backend

LP_BACKENDS = ["simplex", "scipy"]
MIP_BACKENDS = ["branch-and-bound", "scipy"]


def _lp_example():
    """max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> optimum 12 at (4, 0)."""
    m = Model("lp", sense="max")
    x, y = m.add_var("x"), m.add_var("y")
    m.add_constr(x + y <= 4)
    m.add_constr(x + 3 * y <= 6)
    m.set_objective(3 * x + 2 * y)
    return m


def _mip_example():
    """Knapsack: max value with capacity 10, optimum 15 selecting items 0, 1, 3."""
    weights = [2, 3, 4, 5, 9]
    values = [3, 4, 5, 8, 10]
    m = Model("knapsack", sense="max")
    xs = [m.add_var(f"z{i}", vartype="binary") for i in range(5)]
    m.add_constr(lin_sum(weights[i] * xs[i] for i in range(5)) <= 10)
    m.set_objective(lin_sum(values[i] * xs[i] for i in range(5)))
    return m


class TestBackendRegistry:
    def test_scipy_available_in_test_environment(self):
        assert scipy_backend.is_available()
        assert "scipy" in available_backends()

    def test_in_house_backends_always_listed(self):
        backends = available_backends()
        assert "simplex" in backends
        assert "branch-and-bound" in backends

    def test_unknown_backend_rejected(self):
        m = _lp_example()
        with pytest.raises(SolverError):
            solve_model(m, backend="cplex")


class TestLinearPrograms:
    @pytest.mark.parametrize("backend", LP_BACKENDS)
    def test_simple_lp_optimum(self, backend):
        m = _lp_example()
        sol = m.solve(backend=backend)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(12.0, abs=1e-6)
        assert sol.value("x") == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("backend", LP_BACKENDS)
    def test_equality_constraints(self, backend):
        m = Model("eq", sense="min")
        x, y = m.add_var("x"), m.add_var("y")
        m.add_constr(x + y == 5)
        m.add_constr(x - y == 1)
        m.set_objective(x + 2 * y)
        sol = m.solve(backend=backend)
        assert sol.is_optimal
        assert sol.value("x") == pytest.approx(3.0, abs=1e-6)
        assert sol.value("y") == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("backend", LP_BACKENDS)
    def test_infeasible_lp(self, backend):
        m = Model("inf")
        x = m.add_var("x", ub=1.0)
        m.add_constr(x >= 2)
        m.set_objective(x)
        sol = m.solve(backend=backend)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded_lp_simplex(self):
        m = Model("unb", sense="max")
        x = m.add_var("x")
        m.set_objective(x)
        assert m.solve(backend="simplex").status is SolveStatus.UNBOUNDED

    def test_raise_on_infeasible_flag(self):
        m = Model("inf")
        x = m.add_var("x", ub=1.0)
        m.add_constr(x >= 2)
        m.set_objective(x)
        with pytest.raises(InfeasibleError):
            solve_model(m, backend="simplex", raise_on_infeasible=True)

    def test_raise_on_unbounded_flag(self):
        m = Model("unb", sense="max")
        x = m.add_var("x")
        m.set_objective(x)
        with pytest.raises(UnboundedError):
            solve_model(m, backend="simplex", raise_on_infeasible=True)

    def test_negative_lower_bounds(self):
        m = Model("neg", sense="min")
        x = m.add_var("x", lb=-5.0, ub=5.0)
        m.set_objective(x)
        for backend in LP_BACKENDS:
            sol = m.solve(backend=backend)
            assert sol.objective == pytest.approx(-5.0, abs=1e-6)

    def test_free_variable_split(self):
        m = Model("free", sense="min")
        x = m.add_var("x", lb=-math.inf)
        m.add_constr(x >= -3)
        m.set_objective(x)
        sol = m.solve(backend="simplex")
        assert sol.objective == pytest.approx(-3.0, abs=1e-6)

    def test_simplex_agrees_with_scipy_on_random_lps(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n, mrows = 4, 3
            A = rng.uniform(0, 2, size=(mrows, n))
            b = rng.uniform(2, 6, size=mrows)
            c = rng.uniform(0.1, 1.0, size=n)
            model = Model("rand", sense="max")
            xs = [model.add_var(f"x{i}", ub=5.0) for i in range(n)]
            for row, rhs in zip(A, b):
                model.add_constr(lin_sum(row[i] * xs[i] for i in range(n)) <= rhs)
            model.set_objective(lin_sum(c[i] * xs[i] for i in range(n)))
            ours = model.solve(backend="simplex")
            highs = model.solve(backend="scipy")
            assert ours.is_optimal and highs.is_optimal
            assert ours.objective == pytest.approx(highs.objective, rel=1e-6, abs=1e-6)


class TestMixedIntegerPrograms:
    @pytest.mark.parametrize("backend", MIP_BACKENDS)
    def test_knapsack_optimum(self, backend):
        m = _mip_example()
        sol = m.solve(backend=backend)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(15.0, abs=1e-6)
        chosen = {name for name, value in sol.values.items() if name.startswith("z") and value > 0.5}
        assert chosen == {"z0", "z1", "z3"}

    @pytest.mark.parametrize("backend", MIP_BACKENDS)
    def test_integer_rounding_is_exact(self, backend):
        m = _mip_example()
        sol = m.solve(backend=backend)
        for name, value in sol.values.items():
            if name.startswith("z"):
                assert value in (0.0, 1.0)

    @pytest.mark.parametrize("backend", MIP_BACKENDS)
    def test_infeasible_mip(self, backend):
        m = Model("inf-mip")
        x = m.add_var("x", vartype="binary")
        y = m.add_var("y", vartype="binary")
        m.add_constr(x + y >= 3)
        m.set_objective(x + y)
        sol = m.solve(backend=backend)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_general_integer_variables(self):
        m = Model("int", sense="max")
        x = m.add_var("x", vartype="integer", ub=10.0)
        m.add_constr(3 * x <= 10)
        m.set_objective(x)
        for backend in MIP_BACKENDS:
            sol = m.solve(backend=backend)
            assert sol.objective == pytest.approx(3.0, abs=1e-6)

    def test_branch_and_bound_agrees_with_scipy_on_random_set_covers(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n_items, n_sets = 8, 6
            membership = rng.random((n_sets, n_items)) < 0.45
            membership[0] = True  # guarantee feasibility
            m = Model("cover", sense="min")
            xs = [m.add_var(f"s{i}", vartype="binary") for i in range(n_sets)]
            for item in range(n_items):
                containing = [xs[i] for i in range(n_sets) if membership[i, item]]
                m.add_constr(lin_sum(containing) >= 1)
            m.set_objective(lin_sum(xs))
            ours = m.solve(backend="branch-and-bound")
            highs = m.solve(backend="scipy")
            assert ours.objective == pytest.approx(highs.objective, abs=1e-6)

    def test_node_limit_status(self):
        m = _mip_example()
        form = m.to_standard_form()
        sol = solve_milp(form, max_nodes=0)
        assert sol.status in (SolveStatus.NODE_LIMIT, SolveStatus.INFEASIBLE)

    def test_auto_backend_picks_something_valid(self):
        m = _mip_example()
        sol = m.solve(backend="auto")
        assert sol.is_optimal
        assert sol.objective == pytest.approx(15.0, abs=1e-6)


class TestOptionPlumbing:
    """solve_model option names are unified, forwarded, and validated."""

    @pytest.mark.parametrize("backend", ["scipy", "simplex", "branch-and-bound"])
    def test_unknown_option_raises(self, backend):
        m = _lp_example()
        with pytest.raises(SolverError, match="does not recognize"):
            solve_model(m, backend=backend, node_limit=5)

    @pytest.mark.parametrize("backend", ["scipy", "branch-and-bound"])
    def test_mip_gap_honored_across_mip_backends(self, backend):
        m = _mip_example()
        sol = m.solve(backend=backend, mip_gap=1e-4)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(15.0, abs=1e-6)

    def test_mip_gap_rejected_by_simplex(self):
        m = _lp_example()
        with pytest.raises(SolverError):
            solve_model(m, backend="simplex", mip_gap=0.01)

    @pytest.mark.parametrize(
        "option",
        [
            {"pricing": "devex"},
            {"decomposition": "colgen"},
            {"check": "strict"},
            {"cuts": "off"},
            {"max_cut_rounds": 0},
            {"gap_tol": 1e-6},
        ],
    )
    @pytest.mark.parametrize("backend", ["scipy", "simplex", "branch-and-bound"])
    def test_retired_options_are_unknown(self, backend, option):
        # The LP's size picks the pricing rule and column generation, and
        # branch and bound's cut rounds and fathoming gap are constants; no
        # option overrides them, on a one-shot solve, a session or one of
        # its solves.
        with pytest.raises(SolverError, match="does not recognize"):
            solve_model(_lp_example(), backend=backend, **option)
        with pytest.raises(SolverError, match="does not recognize"):
            _lp_example().session(backend=backend, **option)
        session = _lp_example().session(backend=backend)
        with pytest.raises(SolverError, match="does not recognize"):
            session.solve(**option)

    @pytest.mark.parametrize("backend", ["simplex", "branch-and-bound"])
    @pytest.mark.parametrize("devex_min_cols", [math.inf, 0], ids=["dantzig", "devex"])
    def test_both_entering_rules_reach_the_same_optimum(
        self, backend, devex_min_cols, monkeypatch
    ):
        monkeypatch.setattr(simplex, "_DEVEX_MIN_COLS", devex_min_cols)
        model = _mip_example() if backend == "branch-and-bound" else _lp_example()
        expected = 15.0 if backend == "branch-and-bound" else 12.0
        sol = solve_model(model, backend=backend)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(expected, abs=1e-6)

    def test_large_mip_gap_returns_incumbent_within_gap(self):
        m = _mip_example()
        sol = m.solve(backend="branch-and-bound", mip_gap=0.5)
        assert sol.objective is not None
        assert sol.objective >= 15.0 * (1 - 0.5) - 1e-9

    @pytest.mark.parametrize("backend", ["simplex", "branch-and-bound"])
    def test_max_iter_reaches_branch_and_bound_node_lps(self, backend):
        # The in-house simplex raises when it runs out of iterations (the
        # LP relaxation on "simplex", a node LP on "branch-and-bound").
        m = _mip_example()
        with pytest.raises(SolverError, match="did not converge"):
            solve_model(m, backend=backend, max_iter=1)

    def test_branch_and_bound_solves_node_lps_in_house(self):
        # Node LPs never go to HiGHS, whether or not SciPy is importable.
        instr.reset()
        sol = solve_model(_mip_example(), backend="branch-and-bound")
        assert sol.objective == pytest.approx(15.0, abs=1e-6)
        assert instr.get("lp_solves") > 0

    def test_time_limit_accepted_by_branch_and_bound(self):
        m = _mip_example()
        sol = m.solve(backend="branch-and-bound", time_limit=30.0)
        assert sol.objective == pytest.approx(15.0, abs=1e-6)


def _fractional_root_mip():
    """A knapsack whose LP relaxation is fractional at the root."""
    weights = [2, 3, 4]
    values = [3, 4, 5]
    m = Model("frac-knapsack", sense="max")
    xs = [m.add_var(f"z{i}", vartype="binary") for i in range(3)]
    m.add_constr(lin_sum(weights[i] * xs[i] for i in range(3)) <= 7)
    m.set_objective(lin_sum(values[i] * xs[i] for i in range(3)))
    return m


class TestMilpStatusEdges:
    """Regression tests for the unbounded-root and max_nodes edge fixes."""

    def test_unbounded_relaxation_infeasible_milp(self):
        # LP relaxation is unbounded (min -x, x >= 0 free above) but the MILP
        # is infeasible: z integer has no integer point in [0.4, 0.6].  The
        # feasibility probe must report INFEASIBLE, not UNBOUNDED.
        m = Model("edge", sense="min")
        x = m.add_var("x")
        m.add_var("z", lb=0.4, ub=0.6, vartype="integer")
        m.set_objective(-x)
        assert m.solve(backend="branch-and-bound").status is SolveStatus.INFEASIBLE

    def test_unbounded_relaxation_feasible_milp(self):
        m = Model("edge2", sense="min")
        x = m.add_var("x")
        m.add_var("z", vartype="binary")
        m.set_objective(-x)
        assert m.solve(backend="branch-and-bound").status is SolveStatus.UNBOUNDED

    def test_node_limit_is_labeled_not_infeasible(self, monkeypatch):
        # Exactly one node explored (the fractional root): the limit must
        # yield NODE_LIMIT -- before the fix the frontier node popped at the
        # limit was discarded and the result could read INFEASIBLE/OPTIMAL.
        # No cut rounds keeps the root fractional (the cut loop would close
        # this knapsack at the root without exploring any node).
        monkeypatch.setattr(branch_and_bound, "_MAX_CUT_ROUNDS", 0)
        form = _fractional_root_mip().to_standard_form()
        sol = solve_milp(form, max_nodes=1)
        assert sol.status is SolveStatus.NODE_LIMIT
        assert sol.iterations == 1

    def test_node_limit_zero_budget(self):
        form = _fractional_root_mip().to_standard_form()
        sol = solve_milp(form, max_nodes=0)
        assert sol.status is SolveStatus.NODE_LIMIT
        assert sol.iterations == 0
        assert math.isinf(sol.gap)  # no incumbent: nothing is proven

    def test_deadline_without_incumbent_reports_infinite_gap(self):
        form = _fractional_root_mip().to_standard_form()
        with faultinject.inject(FaultPlan(jump_clock_after=1)):
            sol = solve_milp(form, deadline=Deadline(3600.0))
        assert sol.status is SolveStatus.TIME_LIMIT
        assert sol.objective is None and not sol.values
        assert math.isinf(sol.gap)

    def test_same_instance_solves_with_budget(self):
        form = _fractional_root_mip().to_standard_form()
        sol = solve_milp(form, max_nodes=1000)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(9.0, abs=1e-6)

    def test_node_limit_with_incumbent_reports_gap(self):
        # A budget large enough to find an incumbent but too small to close
        # the tree: status NODE_LIMIT, incumbent kept, non-negative gap.
        rng = np.random.default_rng(3)
        m = Model("gapped", sense="min")
        xs = [m.add_var(f"z{i}", vartype="binary") for i in range(12)]
        for row in range(8):
            coeffs = rng.uniform(0.1, 1.0, size=12)
            m.add_constr(lin_sum(float(c) * x for c, x in zip(coeffs, xs)) >= 2.0)
        m.set_objective(lin_sum(float(w) * x for w, x in zip(rng.uniform(1, 3, size=12), xs)))
        full = solve_milp(m.to_standard_form())
        assert full.status is SolveStatus.OPTIMAL
        limited = solve_milp(m.to_standard_form(), max_nodes=2)
        assert limited.status in (SolveStatus.NODE_LIMIT, SolveStatus.OPTIMAL)
        if limited.status is SolveStatus.NODE_LIMIT:
            assert limited.objective is None or limited.objective >= full.objective - 1e-6
            assert limited.gap >= 0.0


def _half_integer_cost_mip():
    """min 2 x1 + 1.5 x2 s.t. 2 x1 + x2 >= 1: the root rounds up to 2, the optimum is 1.5."""
    m = Model("half-integer-cost", sense="min")
    x1, x2 = m.add_var("x1", vartype="binary"), m.add_var("x2", vartype="binary")
    m.add_constr(2 * x1 + x2 >= 1)
    m.set_objective(2 * x1 + 1.5 * x2)
    return m


def _costed_continuous_mip():
    """min 2 x + y s.t. 4 x + y >= 1.5, y in [0, 1.5]: the root rounds up to 2, the optimum is 1.5."""
    m = Model("costed-continuous", sense="min")
    x, y = m.add_var("x", vartype="binary"), m.add_var("y", ub=1.5)
    m.add_constr(4 * x + y >= 1.5)
    m.set_objective(2 * x + y)
    return m


def _grid_step_mip():
    """min 3 x1 + 2 x2 s.t. 2 x1 + x2 >= 1: the root rounds up to 3, the optimum is 2."""
    m = Model("grid-step", sense="min")
    x1, x2 = m.add_var("x1", vartype="binary"), m.add_var("x2", vartype="binary")
    m.add_constr(2 * x1 + x2 >= 1)
    m.set_objective(3 * x1 + 2 * x2)
    return m


class TestIntegerGridFathoming:
    """Branch and bound fathoms one grid step below the incumbent only when
    every integer point has an integer objective."""

    # The first two are off the grid: their optimum sits 0.5 below the first
    # incumbent, in a child whose bound a grid cutoff (1 - 1e-6 under the
    # incumbent) would fathom.  The third is on the grid, and the child
    # holding its optimum has an LP bound of exactly I - 1, which the cutoff
    # must keep.
    @pytest.mark.parametrize(
        ("build", "first", "optimum"),
        [(_half_integer_cost_mip, 2.0, 1.5), (_costed_continuous_mip, 2.0, 1.5), (_grid_step_mip, 3.0, 2.0)],
    )
    def test_tree_finds_the_optimum_below_the_first_incumbent(
        self, build, first, optimum, monkeypatch
    ):
        # No cut rounds keeps the root fractional, so the tree has to find it.
        monkeypatch.setattr(branch_and_bound, "_MAX_CUT_ROUNDS", 0)
        form = build().to_standard_form()
        limited = solve_milp(form, max_nodes=1)
        assert limited.status is SolveStatus.NODE_LIMIT
        assert limited.objective == pytest.approx(first, abs=1e-9)
        sol = solve_milp(form)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(optimum, abs=1e-9)

    def test_node_limit_gap_rounds_the_open_bound_to_the_grid(self, monkeypatch):
        # max 3 z0 + 4 z1 + 5 z2: the root (9.5) rounds to 7, the probe of
        # the z2 = 0 side meets that incumbent, and the z2 = 1 side stays
        # open at 9 1/3.  No integer point beats 9, so the gap is 2/7 (the
        # unrounded bound would read 1/3).
        monkeypatch.setattr(branch_and_bound, "_MAX_CUT_ROUNDS", 0)
        form = _fractional_root_mip().to_standard_form()
        sol = solve_milp(form, max_nodes=1)
        assert sol.status is SolveStatus.NODE_LIMIT
        assert sol.objective == pytest.approx(7.0, abs=1e-9)
        assert sol.gap == pytest.approx(2.0 / 7.0, abs=1e-9)


class TestSolverSession:
    def test_session_updates_and_warm_resolves(self):
        m = Model("sess", sense="min")
        a, b = m.add_var("a"), m.add_var("b")
        m.add_constr(a + b >= 4, name="cover")
        m.set_objective(2 * a + 3 * b)
        session = m.session(backend="simplex")
        assert session.solve().objective == pytest.approx(8.0)
        session.update_constraint_rhs("cover", 10)
        assert session.solve().objective == pytest.approx(20.0)
        session.update_constraint_coeff("cover", "b", 2.0)
        session.update_objective_coeff("a", 5.0)
        sol = session.solve()
        assert sol.objective == pytest.approx(15.0)
        # The session attaches solutions back to the model.
        assert m.value("b") == pytest.approx(5.0)

    def test_session_var_bound_updates(self):
        m = Model("bounds", sense="max")
        x = m.add_var("x", ub=4.0)
        m.set_objective(x)
        session = m.session(backend="simplex")
        assert session.solve().objective == pytest.approx(4.0)
        session.update_var_bounds("x", ub=2.5)
        assert session.solve().objective == pytest.approx(2.5)

    def test_session_unknown_constraint_or_option(self):
        m = _lp_example()
        m.add_constr(m.get_var("x") >= 0, name="named")
        session = m.session(backend="simplex")
        with pytest.raises(Exception):
            session.update_constraint_rhs("missing", 1.0)
        with pytest.raises(SolverError):
            m.session(backend="simplex", mip_gap=0.1)

    def test_duplicate_constraint_names_rejected_for_updates(self):
        m = Model("dups", sense="min")
        x = m.add_var("x")
        m.add_constr(x >= 1, name="cap")
        m.add_constr(x >= 2, name="cap")
        m.set_objective(x)
        session = m.session(backend="simplex")
        with pytest.raises(Exception, match="shared by several"):
            session.update_constraint_rhs("cap", 5.0)
        with pytest.raises(Exception, match="2 constraints named"):
            m.update_constraint_rhs("cap", 5.0)

    def test_model_update_constraint_rhs_roundtrip(self):
        m = Model("roundtrip", sense="min")
        x = m.add_var("x")
        m.add_constr(x >= 3, name="floor")
        m.set_objective(x)
        assert m.solve(backend="simplex").objective == pytest.approx(3.0)
        m.update_constraint_rhs("floor", 7)
        assert m.solve(backend="simplex").objective == pytest.approx(7.0)


class TestSessionAfterFailedSolves:
    """A failed or failed-over solve must leave the session consistent."""

    def _session(self, **options):
        m = Model("resilient-sess", sense="min")
        a, b = m.add_var("a"), m.add_var("b")
        m.add_constr(a + b >= 4, name="cover")
        m.set_objective(2 * a + 3 * b)
        return m.session(backend="simplex", **options)

    def test_failed_solve_without_fallback_leaves_state_intact(self):
        session = self._session()
        assert session.solve().objective == pytest.approx(8.0)
        basis = session._basis
        rhs = session.form.b_ub.copy()
        with faultinject.inject(FaultPlan(fail_backends=("simplex",))):
            with pytest.raises(SolverError):
                session.solve()
        assert session._basis is basis
        np.testing.assert_array_equal(session.form.b_ub, rhs)
        # The session still warm-resolves normally afterwards.
        assert session.solve().objective == pytest.approx(8.0)

    def test_failover_solve_preserves_warm_state(self):
        session = self._session(fallback="auto")
        assert session.solve().objective == pytest.approx(8.0)
        basis = session._basis
        with faultinject.inject(FaultPlan(fail_backends=("simplex",))):
            sol = session.solve()
        # SciPy answered on the session's patched form, tagged as degraded...
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(8.0)
        assert sol.degradation is not None
        assert sol.degradation.rungs == ("simplex->scipy",)
        # ...and the failover did not clobber the warm basis.
        assert session._basis is basis
        after = session.solve()
        assert after.objective == pytest.approx(8.0)
        assert after.degradation is None

    def test_failover_respects_patches_made_before_the_failure(self):
        session = self._session(fallback="auto")
        session.solve()
        session.update_constraint_rhs("cover", 10)
        with faultinject.inject(FaultPlan(fail_backends=("simplex",))):
            sol = session.solve()
        assert sol.objective == pytest.approx(20.0)

    def test_time_limit_solve_keeps_previous_basis(self):
        session = self._session()
        session.solve()
        basis = session._basis
        with faultinject.inject(FaultPlan(jump_clock_after=1)):
            sol = session.solve(time_limit=3600.0)
        assert sol.status is SolveStatus.TIME_LIMIT
        # A deadline expiry returns no factorized basis token; the session
        # must keep the previous warm-start state rather than storing None.
        assert session._basis is basis
        assert session.solve().objective == pytest.approx(8.0)

    def test_session_validates_time_limit(self):
        session = self._session()
        with pytest.raises(ValueError, match="time_limit"):
            session.solve(time_limit=-1.0)


class TestStandardFormSolvers:
    def test_simplex_on_standard_form_directly(self):
        m = _lp_example()
        sol = solve_standard_form(m.to_standard_form())
        assert sol.is_optimal
        assert sol.objective == pytest.approx(12.0, abs=1e-6)

    def test_scipy_lp_and_mip_entry_points(self):
        lp = _lp_example().to_standard_form()
        assert scipy_backend.solve_lp(lp).objective == pytest.approx(12.0, abs=1e-6)
        mip = _mip_example().to_standard_form()
        assert scipy_backend.solve_mip(mip).objective == pytest.approx(15.0, abs=1e-6)

    def test_unconstrained_problem(self):
        m = Model("empty", sense="min")
        m.add_var("x", ub=3.0)
        m.set_objective(m.get_var("x"))
        sol = m.solve(backend="simplex")
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
