"""Unit and property tests for the presolve / cutting-plane engine.

Three layers of defense for the transform half of the solver stack:

* per-reduction unit tests pin the behavior of each presolve pass on
  hand-built models (fixed columns, singleton rows, redundant / forcing /
  parallel rows, empty columns, integer rounding, coefficient tightening);
* infeasibility tests assert that presolve *refutes* models it should --
  including the stale-forcing regression where pins applied by an earlier
  forcing row invalidate a later row's forcing classification;
* round-trip property tests check ``presolve -> solve reduced -> postsolve``
  against solving the original form directly, and that separated cutting
  planes never exclude an integer-feasible point.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.optim import Model, SolveStatus, lin_sum, solve_model
from repro.optim import scipy_backend
from repro.optim.analysis import analyze_form
from repro.optim.cuts import (
    append_cut_rows,
    reduced_cost_fixing,
    separate_cover_cuts,
    separate_gomory_cuts,
    separate_implied_cardinality_cuts,
)
from repro.optim.errors import InternalSolverError
from repro.optim.presolve import presolve
from repro.optim.simplex import SimplexSolver

TOL = 1e-6


def _feasible(form, x, tol: float = 1e-7) -> bool:
    """Does ``x`` satisfy every row and bound of ``form``?"""
    scale = tol * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    if np.any(x < form.lb - scale) or np.any(x > form.ub + scale):
        return False
    if form.b_ub.size and np.any(form.A_ub.matvec(x) > form.b_ub + scale):
        return False
    if form.b_eq.size and np.any(np.abs(form.A_eq.matvec(x) - form.b_eq) > scale):
        return False
    return True


class TestReductions:
    def test_fixed_column_is_substituted(self):
        m = Model("fix", sense="min")
        x = m.add_var("x", lb=2.0, ub=2.0)
        y = m.add_var("y", lb=0.0, ub=10.0)
        m.add_constr(x + y <= 5.0, name="row")
        m.set_objective(x + y)
        red, post = presolve(m.to_standard_form())
        # x = 2 moves into the rhs (y <= 3), the singleton row becomes a
        # bound, and y -- now an empty column with positive cost -- is fixed
        # at its lower bound: the whole model presolves away.
        assert red.cols_fixed == 2
        assert red.num_vars == 0
        restored = post.restore_point(np.zeros(0))
        assert restored == pytest.approx([2.0, 0.0])

    def test_singleton_row_becomes_bound(self):
        m = Model("single", sense="min")
        x = m.add_var("x", lb=0.0, ub=10.0)
        y = m.add_var("y", lb=0.0, ub=10.0)
        m.add_constr(2.0 * x <= 6.0, name="cap")
        m.add_constr(x + y >= 1.0, name="cover")
        m.set_objective(x + y)
        red, _ = presolve(m.to_standard_form())
        assert red.rows_removed >= 1
        j = red.names.index("x") if "x" in red.names else None
        if j is not None:
            assert red.ub[j] == pytest.approx(3.0)

    def test_redundant_row_is_dropped(self):
        m = Model("redundant", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        y = m.add_var("y", lb=0.0, ub=1.0)
        m.add_constr(x + y <= 5.0, name="slack_row")  # max activity 2 << 5
        m.add_constr(x + y >= 1.0, name="binding")
        m.set_objective(x + y)
        red, _ = presolve(m.to_standard_form())
        assert red.b_ub.size == 1  # only the cover row survives

    def test_forcing_row_pins_support(self):
        m = Model("forcing", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        y = m.add_var("y", lb=0.0, ub=1.0)
        m.add_constr(x + y <= 0.0, name="force_zero")
        m.set_objective(-x - y)
        red, post = presolve(m.to_standard_form())
        assert red.num_vars == 0
        x_full = post.restore_point(np.zeros(0))
        assert x_full == pytest.approx([0.0, 0.0])

    def test_parallel_rows_keep_tightest(self):
        m = Model("parallel", sense="max")
        x = m.add_var("x", lb=0.0, ub=10.0)
        y = m.add_var("y", lb=0.0, ub=10.0)
        m.add_constr(x + y <= 8.0, name="loose")
        m.add_constr(x + y <= 3.0, name="tight")
        m.set_objective(x + y)
        red, _ = presolve(m.to_standard_form())
        assert red.b_ub.size == 1
        assert red.b_ub[0] == pytest.approx(3.0)

    def test_opposite_direction_parallel_rows_both_survive(self):
        # x + y <= 3 and x + y >= 1 bracket a range: neither is redundant.
        m = Model("bracket", sense="min")
        x = m.add_var("x", lb=0.0, ub=5.0)
        y = m.add_var("y", lb=0.0, ub=5.0)
        m.add_constr(x + y <= 3.0, name="upper")
        m.add_constr(x + y >= 1.0, name="lower")
        m.set_objective(x + 2.0 * y)
        red, _ = presolve(m.to_standard_form())
        assert red.rows_removed == 0
        assert set(red.row_map) == {"upper", "lower"}

    def test_empty_column_fixed_at_preferred_bound(self):
        m = Model("empty", sense="min")
        x = m.add_var("x", lb=-1.0, ub=4.0)  # cost +1: prefers lb
        y = m.add_var("y", lb=0.0, ub=2.0)
        m.add_constr(y <= 1.0, name="row")
        m.set_objective(x + 0.0 * y)
        red, post = presolve(m.to_standard_form())
        assert "x" not in red.names
        x_full = post.restore_point(np.zeros(red.num_vars))
        assert x_full[0] == pytest.approx(-1.0)

    def test_integer_bounds_are_rounded(self):
        m = Model("round", sense="max")
        x = m.add_var("x", lb=0.4, ub=3.7, vartype="integer")
        y = m.add_var("y", lb=0.0, ub=5.0)
        m.add_constr(x + y <= 100.0, name="wide")
        m.set_objective(x + y)
        red, post = presolve(m.to_standard_form(), integer_aware=True)
        # The wide row is redundant, both columns empty out, and the
        # maximization fixes each at its (rounded, for x) upper bound.
        assert red.num_vars == 0
        restored = post.restore_point(np.zeros(0))
        assert restored == pytest.approx([3.0, 5.0])

    def test_binary_coefficient_tightening_preserves_optimum(self):
        # 5x + y <= 5 with binary x: coefficient 5 exceeds the row's slack
        # when x = 1, so it tightens without changing the feasible set.
        m = Model("tighten", sense="max")
        x = m.add_var("x", vartype="binary")
        y = m.add_var("y", lb=0.0, ub=4.0)
        m.add_constr(5.0 * x + y <= 5.0, name="wide")
        m.set_objective(2.0 * x + y)
        form = m.to_standard_form()
        red, _ = presolve(form, integer_aware=True)
        assert red.coeffs_tightened >= 1
        ours = solve_model(m, backend="branch-and-bound")
        ref = scipy_backend.solve_mip(form) if scipy_backend.is_available() else None
        if ref is not None:
            assert ours.objective == pytest.approx(ref.objective, abs=TOL)

    def test_analyzer_dry_run_is_informational(self):
        m = Model("report", sense="min")
        x = m.add_var("x", lb=1.0, ub=1.0)
        y = m.add_var("y", lb=0.0, ub=2.0)
        m.add_constr(x + y <= 10.0, name="loose")
        m.set_objective(x + y)
        diagnostics = analyze_form(m.to_standard_form())
        assert diagnostics, "expected presolve findings on a reducible model"
        assert all(d.severity == "info" for d in diagnostics)


class TestInfeasibility:
    def test_crossed_bounds_are_refuted(self):
        m = Model("crossed", sense="min")
        x = m.add_var("x", lb=0.0, ub=5.0)
        m.add_constr(x <= -1.0, name="push_down")
        m.add_constr(x >= 1.0, name="push_up")
        m.set_objective(x)
        red, _ = presolve(m.to_standard_form())
        assert red.proven_infeasible
        assert red.infeasible_reason

    def test_singleton_eq_outside_bounds_is_refuted(self):
        m = Model("pin", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        m.add_constr(x == 3.0, name="pin")
        m.set_objective(x)
        red, _ = presolve(m.to_standard_form())
        assert red.proven_infeasible

    def test_activity_refutes_unreachable_row(self):
        m = Model("unreachable", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        y = m.add_var("y", lb=0.0, ub=1.0)
        m.add_constr(x + y >= 3.0, name="impossible")
        m.set_objective(x + y)
        red, _ = presolve(m.to_standard_form())
        assert red.proven_infeasible

    def test_stale_forcing_pin_does_not_mask_infeasibility(self):
        """Regression: pins applied by an earlier forcing row must invalidate
        a later row's (stale) forcing classification.

        ``x + y <= 0`` forces x = y = 0; with the *original* bounds
        ``x + y + z >= 3`` also looks forcing (minimum activity exactly 3
        with all three at their upper bound 1), but after the first row's
        pins its minimum activity is 1 < 3: the model is infeasible, and an
        unsound presolve would instead pin z = 1 and report a feasible
        reduction."""
        m = Model("stale", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        y = m.add_var("y", lb=0.0, ub=1.0)
        z = m.add_var("z", lb=0.0, ub=1.0)
        m.add_constr(x + y <= 0.0, name="force_zero")
        m.add_constr(x + y + z >= 3.0, name="force_one")
        m.set_objective(x + y + z)
        red, _ = presolve(m.to_standard_form())
        assert red.proven_infeasible
        solution = solve_model(m, backend="simplex")
        assert solution.status is SolveStatus.INFEASIBLE

    def test_restore_point_size_mismatch_raises(self):
        m = Model("mismatch", sense="min")
        x = m.add_var("x", lb=1.0, ub=1.0)
        y = m.add_var("y", lb=0.0, ub=2.0)
        m.add_constr(x + y <= 3.0, name="row")
        m.set_objective(x + y)
        _, post = presolve(m.to_standard_form())
        with pytest.raises(InternalSolverError):
            post.restore_point(np.zeros(7))


@pytest.mark.skipif(not scipy_backend.is_available(), reason="needs the HiGHS reference")
class TestPostsolveRoundTrip:
    def _random_model(self, rng: np.random.Generator, mip: bool) -> Model:
        n = int(rng.integers(2, 7))
        m_rows = int(rng.integers(1, 6))
        model = Model("roundtrip", sense="max" if rng.random() < 0.5 else "min")
        xs = []
        for i in range(n):
            lo = float(rng.uniform(-3, 1))
            hi = lo + float(rng.uniform(0.5, 6))
            if mip and rng.random() < 0.5:
                xs.append(model.add_var(f"x{i}", lb=float(np.floor(lo)), ub=float(np.ceil(hi)),
                                        vartype="integer"))
            else:
                xs.append(model.add_var(f"x{i}", lb=lo, ub=hi))
        for row in range(m_rows):
            coeffs = rng.uniform(-2.0, 2.0, size=n)
            coeffs[rng.random(n) < 0.4] = 0.0
            if not np.any(coeffs):
                coeffs[int(rng.integers(0, n))] = 1.0
            expr = lin_sum(float(c) * x for c, x in zip(coeffs, xs) if c)
            rhs = float(rng.uniform(-4.0, 4.0))
            sense = ("<=", ">=", "==")[int(rng.integers(0, 3))]
            if sense == "<=":
                model.add_constr(expr <= rhs, name=f"c{row}")
            elif sense == ">=":
                model.add_constr(expr >= rhs, name=f"c{row}")
            else:
                model.add_constr(expr == rhs, name=f"c{row}")
        model.set_objective(lin_sum(float(c) * x for c, x in
                                    zip(rng.uniform(-3.0, 3.0, size=n), xs)))
        return model

    def test_presolved_lp_solutions_lift_exactly(self):
        rng = np.random.default_rng(20260808)
        lifted = 0
        for _ in range(60):
            form = self._random_model(rng, mip=False).to_standard_form()
            reference = scipy_backend.solve_lp(form)
            red, post = presolve(form)
            if red.proven_infeasible:
                assert reference.status is SolveStatus.INFEASIBLE
                continue
            if red.num_vars == 0:
                x = post.restore_point(np.zeros(0))
                assert reference.status is SolveStatus.OPTIMAL
                assert _feasible(form, x)
                assert form.objective_value(x) == pytest.approx(reference.objective, abs=1e-5)
                lifted += 1
                continue
            solved = scipy_backend.solve_lp(red)
            assert solved.status is reference.status
            if solved.status is not SolveStatus.OPTIMAL:
                continue
            restored = post.restore(solved)
            assert restored.objective == pytest.approx(reference.objective, rel=1e-5, abs=1e-5)
            x = np.array([restored.values[name] for name in form.names])
            assert _feasible(form, x, tol=1e-6)
            lifted += 1
        assert lifted >= 20, "round-trip fuzz generated too few solvable instances"

    def test_presolved_milp_solutions_lift_exactly(self):
        rng = np.random.default_rng(4242)
        lifted = 0
        for _ in range(40):
            form = self._random_model(rng, mip=True).to_standard_form()
            reference = scipy_backend.solve_mip(form)
            red, post = presolve(form, integer_aware=True)
            if red.proven_infeasible:
                assert reference.status is SolveStatus.INFEASIBLE
                continue
            if red.num_vars == 0:
                if reference.status is SolveStatus.OPTIMAL:
                    x = post.restore_point(np.zeros(0))
                    assert _feasible(form, x)
                    assert form.objective_value(x) == pytest.approx(reference.objective, abs=1e-5)
                    lifted += 1
                continue
            solved = scipy_backend.solve_mip(red)
            assert solved.status is reference.status
            if solved.status is not SolveStatus.OPTIMAL:
                continue
            restored = post.restore(solved)
            assert restored.objective == pytest.approx(reference.objective, rel=1e-5, abs=1e-5)
            lifted += 1
        assert lifted >= 10


class TestCutValidity:
    def _knapsack(self):
        m = Model("knap", sense="max")
        xs = [m.add_var(f"x{i}", vartype="binary") for i in range(5)]
        weights = [4.0, 3.0, 3.0, 2.0, 2.0]
        values = [5.0, 4.0, 3.0, 2.0, 1.5]
        m.add_constr(lin_sum(w * x for w, x in zip(weights, xs)) <= 7.0, name="cap")
        m.set_objective(lin_sum(v * x for v, x in zip(values, xs)))
        return m

    def _integer_points(self, form):
        ranges = [range(int(form.lb[j]), int(form.ub[j]) + 1) for j in range(form.num_vars)]
        for point in itertools.product(*ranges):
            x = np.asarray(point, dtype=float)
            if _feasible(form, x):
                yield x

    def test_cover_cuts_keep_every_integer_point(self):
        form = self._knapsack().to_standard_form()
        relax = scipy_backend.solve_lp(form) if scipy_backend.is_available() else None
        if relax is None or relax.status is not SolveStatus.OPTIMAL:
            pytest.skip("needs an LP relaxation optimum")
        x_frac = np.array([relax.values[name] for name in form.names])
        cuts = separate_cover_cuts(form, x_frac)
        for cut in cuts:
            # Each cut must separate the fractional point ...
            assert float(x_frac[cut.cols] @ cut.vals) > cut.rhs + TOL
            # ... while keeping every integer-feasible point.
            for x in self._integer_points(form):
                assert float(x[cut.cols] @ cut.vals) <= cut.rhs + TOL

    def test_gomory_cuts_keep_every_integer_point(self):
        form = self._knapsack().to_standard_form()
        solver = SimplexSolver(form)
        relax, token = solver.solve()
        if relax.status is not SolveStatus.OPTIMAL or token is None:
            pytest.skip("needs a factorized LP relaxation optimum")
        x_frac = np.array([relax.values[name] for name in form.names])
        lp = solver._lp
        assert lp is not None
        cuts = separate_gomory_cuts(lp, token, form, x_frac)
        for cut in cuts:
            assert float(x_frac[cut.cols] @ cut.vals) > cut.rhs + TOL
            for x in self._integer_points(form):
                assert float(x[cut.cols] @ cut.vals) <= cut.rhs + TOL

    def _fixed_charge(self):
        """Two fixed-charge links, two demand rows, one coverage indicator.

        The LP relaxation opens ``y1 = 0.3`` (a placement binary priced at
        ``demand/capacity``) -- exactly the structure whose implied
        cardinality cuts (``y1 >= 1``, ``y1 + y2 >= 1``, ``delta <= y2``)
        close the fixed-charge gap.
        """
        m = Model("fixed-charge", sense="min")
        y1 = m.add_var("y1", vartype="binary")
        y2 = m.add_var("y2", vartype="binary")
        delta = m.add_var("delta", vartype="binary")
        r1 = m.add_var("r1", lb=0.0, ub=1.0)
        r2 = m.add_var("r2", lb=0.0, ub=1.0)
        m.add_constr(r1 <= y1)          # VUB rows
        m.add_constr(r2 <= y2)
        m.add_constr(r1 >= 0.3)         # demand on path {l1}
        m.add_constr(r1 + r2 >= 0.4)    # demand on path {l1, l2}
        m.add_constr(0.2 * delta <= r2)  # coverage indicator gated by r2
        m.add_constr(delta >= 1)         # traffic must be covered
        m.set_objective(5 * y1 + 5 * y2 + r1 + r2)
        return m

    def test_implied_cardinality_cuts_keep_every_mixed_point(self):
        form = self._fixed_charge().to_standard_form()
        # LP point that the cuts should separate: binaries at demand/capacity.
        x_frac = np.zeros(form.num_vars)
        by_name = {name: j for j, name in enumerate(form.names)}
        x_frac[by_name["y1"]] = 0.3
        x_frac[by_name["r1"]] = 0.3
        x_frac[by_name["y2"]] = 0.2
        x_frac[by_name["r2"]] = 0.2
        x_frac[by_name["delta"]] = 1.0
        cuts = separate_implied_cardinality_cuts(form, x_frac)
        assert cuts, "fixed-charge structure must yield implied cardinality cuts"
        kinds = {cut.kind for cut in cuts}
        assert kinds == {"implied-card"}
        # Every cut must separate the fractional point ...
        for cut in cuts:
            assert float(x_frac[cut.cols] @ cut.vals) > cut.rhs + TOL
        # ... while keeping every feasible point whose integer coordinates
        # are integral (continuous coordinates swept over a grid).
        integral = np.asarray(form.integrality, dtype=bool)
        grids = [
            (0.0, 1.0) if integral[j] else tuple(np.linspace(form.lb[j], form.ub[j], 6))
            for j in range(form.num_vars)
        ]
        checked = 0
        for point in itertools.product(*grids):
            x = np.asarray(point, dtype=float)
            if not _feasible(form, x):
                continue
            checked += 1
            for cut in cuts:
                assert float(x[cut.cols] @ cut.vals) <= cut.rhs + TOL
        assert checked > 0

    def test_implied_cardinality_cuts_close_the_fixed_charge_gap(self):
        # With the cuts the root relaxation should already price in the two
        # forced setups; the branch-and-bound objective must be unaffected.
        model = self._fixed_charge()
        on = model.solve(backend="branch-and-bound", cuts="auto")
        off = model.solve(backend="branch-and-bound", cuts="off")
        assert on.status is SolveStatus.OPTIMAL
        assert on.objective == pytest.approx(off.objective, abs=1e-7)
        assert on.objective == pytest.approx(10.0 + 0.3 + 0.2, abs=1e-6)

    def test_append_cut_rows_leaves_input_form_untouched(self):
        form = self._knapsack().to_standard_form()
        x_frac = np.full(form.num_vars, 0.99)
        cuts = separate_cover_cuts(form, x_frac)
        if not cuts:
            pytest.skip("no violated cover at this point")
        before = form.b_ub.copy()
        extended = append_cut_rows(form, cuts)
        assert extended is not form
        assert extended.b_ub.size == form.b_ub.size + len(cuts)
        np.testing.assert_array_equal(form.b_ub, before)

    def test_reduced_cost_fixing_respects_slack(self):
        lb = np.zeros(3)
        ub = np.ones(3)
        x = np.array([0.0, 0.0, 1.0])
        d = np.array([4.0, 0.5, -4.0])
        integrality = np.ones(3, dtype=bool)
        new_lb, new_ub, n_fixed = reduced_cost_fixing(x, d, lb, ub, integrality, slack=1.0)
        assert n_fixed == 2
        assert new_ub[0] == pytest.approx(0.0)  # d=4 > slack: cannot leave lb
        assert new_ub[1] == pytest.approx(1.0)  # d=0.5 <= slack: untouched
        assert new_lb[2] == pytest.approx(1.0)  # d=-4: cannot leave ub
        # copy-on-write: the originals are untouched
        assert ub == pytest.approx(np.ones(3))
        assert lb == pytest.approx(np.zeros(3))


@pytest.mark.skipif(not scipy_backend.is_available(), reason="needs the HiGHS reference")
class TestOptionEquivalence:
    def test_presolve_and_cuts_do_not_change_milp_objectives(self):
        rng = np.random.default_rng(777)
        helper = TestPostsolveRoundTrip()
        for _ in range(15):
            model = helper._random_model(rng, mip=True)
            reference = scipy_backend.solve_mip(model.to_standard_form())
            if reference.status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
                continue
            for options in (
                {"presolve": "on", "cuts": "auto"},
                {"presolve": "on", "cuts": "off"},
                {"presolve": "off", "cuts": "auto"},
                {"presolve": "off", "cuts": "off"},
            ):
                ours = solve_model(model, backend="branch-and-bound", **options)
                assert ours.status is reference.status, f"{options}: {ours.status}"
                if reference.status is SolveStatus.OPTIMAL:
                    assert ours.objective == pytest.approx(reference.objective, abs=1e-5), (
                        f"{options}"
                    )
