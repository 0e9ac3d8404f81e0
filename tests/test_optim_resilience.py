"""Tests for the resilient solve layer (deadline, recovery ladder, failover).

Every recovery rung is driven deterministically through the fault-injection
harness (:mod:`repro.optim.faultinject`): fail the Nth factorization, corrupt
the Nth pivot column or spike, stall a warm repair, take a backend down, jump
the deadline clock.  The load-bearing assertion throughout is that *a recovered
solve returns the same answer as an unfaulted one* -- resilience must never
change the mathematics, only survive the environment.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.optim import (
    Deadline,
    Degradation,
    FaultPlan,
    Model,
    SolveStatus,
    lin_sum,
    solve_model,
)
from repro.optim import diagnostics, faultinject
from repro.optim import instrumentation as instr
from repro.optim import scipy_backend
from repro.optim.branch_and_bound import solve_milp
from repro.optim.errors import InternalSolverError, SolverError
from repro.optim.presolve import presolve
from repro.optim.resilience import _RUNG_COUNTERS, greedy_form_solve
from repro.optim.simplex import SimplexSolver, solve_standard_form

LP_OPTIMUM = 7.0  # min 3x + 2y s.t. x + y >= 3, 2x + y >= 4 at (1, 2)


def _lp_model():
    m = Model("resilient-lp")
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constr(x + y >= 3, "cover")
    m.add_constr(2 * x + y >= 4, "capacity")
    m.set_objective(3 * x + 2 * y)
    return m


def _lp_form():
    return _lp_model().to_standard_form()


def _mip_model():
    weights = [2, 3, 4, 5, 9]
    values = [3, 4, 5, 8, 10]
    m = Model("resilient-knapsack", sense="max")
    xs = [m.add_var(f"z{i}", vartype="binary") for i in range(5)]
    m.add_constr(lin_sum(weights[i] * xs[i] for i in range(5)) <= 10)
    m.set_objective(lin_sum(values[i] * xs[i] for i in range(5)))
    return m


def _frac_knapsack_model():
    """A knapsack whose LP relaxation (9.5) is above its MILP optimum (9.0)."""
    m = Model("frac-knapsack", sense="max")
    zs = [m.add_var(f"z{i}", vartype="binary") for i in range(3)]
    m.add_constr(lin_sum(w * z for w, z in zip([2, 3, 4], zs)) <= 7)
    m.set_objective(lin_sum(v * z for v, z in zip([3, 4, 5], zs)))
    return m


_reported_rules = []


@pytest.fixture(autouse=True)
def _clean_counters():
    instr.reset()
    _reported_rules.clear()
    previous = diagnostics.set_handler(
        lambda _label, found: _reported_rules.extend(d.rule for d in found)
    )
    yield
    diagnostics.set_handler(previous)
    instr.reset()


def _rung_rules():
    """Diagnostic rule names reported since the fixture installed its handler."""
    return list(_reported_rules)


class TestDeadline:
    def test_unlimited_never_expires(self):
        d = Deadline(None)
        assert not d.expired()
        assert d.remaining() == math.inf
        assert d.remaining_or_none() is None
        assert d.limit is None

    def test_positive_limit_counts_down(self):
        d = Deadline(60.0)
        assert not d.expired()
        assert 0.0 < d.remaining() <= 60.0
        assert d.limit == 60.0

    def test_expiry(self):
        d = Deadline(1e-3)
        time.sleep(5e-3)
        assert d.expired()
        assert d.remaining() == 0.0
        # External backends reject a limit of exactly zero.
        assert d.remaining_or_none() == pytest.approx(1e-3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_invalid_limits_rejected(self, bad):
        with pytest.raises(ValueError):
            Deadline(bad)

    def test_injected_clock_jump_expires_checks_only(self):
        with faultinject.inject(FaultPlan(jump_clock_after=1)) as armed:
            d = Deadline(3600.0)
            assert d.expired()  # first check jumps the clock far forward
        assert armed.fired[faultinject.DEADLINE] == 1
        # Outside the context the same deadline is healthy again: the skew
        # moved the checks, never the anchor.
        assert not d.expired()


class TestFaultHarness:
    def test_inert_by_default(self):
        assert faultinject.ACTIVE is False
        assert faultinject.clock_skew() == 0.0
        vec = np.array([1.0, 2.0])
        faultinject.corrupt_vector(faultinject.PIVOT_FTRAN, vec)
        assert np.all(np.isfinite(vec))
        faultinject.maybe_fail(faultinject.FACTORIZE, RuntimeError)  # no raise
        faultinject.maybe_fail_backend("simplex", RuntimeError)  # no raise
        assert faultinject.should(faultinject.WARM_REPAIR) is False

    def test_empty_plan_changes_nothing(self):
        with faultinject.inject(FaultPlan()) as armed:
            sol = solve_standard_form(_lp_form())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(LP_OPTIMUM)
        assert armed.fired == {}

    def test_nesting_rejected(self):
        with faultinject.inject(FaultPlan()):
            with pytest.raises(InternalSolverError):
                with faultinject.inject(FaultPlan()):
                    pass  # pragma: no cover - never reached
        assert faultinject.ACTIVE is False

    def test_disarmed_after_exception(self):
        with pytest.raises(RuntimeError):
            with faultinject.inject(FaultPlan()):
                raise RuntimeError("boom")
        assert faultinject.ACTIVE is False


def _cover_form():
    """70 random covering rows, above ``_SPLU_MIN_DIM``: with SciPy present
    its cold solve factorizes with SuperLU, and under the ``numeric_core``
    dense-LU legs (or without SciPy) with the dense inverse."""
    rng = np.random.default_rng(7)
    n = 70
    model = Model("large-cover")
    xs = [model.add_var(f"x{j}") for j in range(n)]
    for i in range(n):
        picks = rng.choice(n, size=5, replace=False)
        model.add_constr(lin_sum(xs[j] for j in picks) >= 1, f"row{i}")
    model.set_objective(lin_sum((1.0 + rng.random()) * x for x in xs))
    return model.to_standard_form()


def _wide_eq_form():
    """610 columns under an equality row and four cover rows: from
    ``_SHIFT_PROACTIVE_COLS`` columns the cold solve starts on shifted
    bounds.  (With the equality row alone the basis is 1 x 1, and its
    spikes hold no entry a fault could poison.)"""
    rng = np.random.default_rng(610)
    model = Model("wide-eq")
    xs = [model.add_var(f"x{j}", ub=1.0) for j in range(610)]
    model.add_constr(lin_sum(xs) == 5, "pick")
    for r in range(4):
        weights = rng.uniform(0, 1, 610)
        model.add_constr(lin_sum(float(w) * x for w, x in zip(weights, xs)) >= 2.0, f"cover{r}")
    model.set_objective(lin_sum(float(c) * x for c, x in zip(rng.uniform(1, 2, 610), xs)))
    return model.to_standard_form()


#: Each LP with the rung that answers when its first cold attempt fails.
_LADDER_FORMS = {
    "small": (_lp_form, "bound-shift", "recovery_bound_shift"),
    "cover-70": (_cover_form, "bound-shift", "recovery_bound_shift"),
    "wide-610": (_wide_eq_form, "shift-fallback", "recovery_shift_fallback"),
}

_ONE_FAULT = {
    "factorization": (FaultPlan(fail_factorizations=(1,)), faultinject.FACTORIZE),
    "pivot": (FaultPlan(corrupt_pivots=(1,)), faultinject.PIVOT_FTRAN),
    "spike": (FaultPlan(corrupt_spikes=(1,)), faultinject.SPIKE),
}


class TestRecoveryLadder:
    """A cold solve makes two attempts, and a recovered answer is unchanged."""

    @pytest.mark.parametrize("fault", sorted(_ONE_FAULT))
    @pytest.mark.parametrize("lp", sorted(_LADDER_FORMS))
    def test_one_fault_is_answered_by_the_second_attempt(self, lp, fault):
        # A failed factorization, a NaN pivot column or a poisoned spike (it
        # NaNs every later FTRAN/BTRAN through that factor) ends the first
        # attempt; the second, on the other bounds, reaches the clean optimum.
        make_form, rung, counter = _LADDER_FORMS[lp]
        plan, site = _ONE_FAULT[fault]
        form = make_form()
        clean = solve_standard_form(form)
        assert clean.status is SolveStatus.OPTIMAL
        instr.reset()
        with faultinject.inject(plan) as armed:
            faulted = solve_standard_form(form)
        assert armed.fired == {site: 1}
        assert faulted.status is SolveStatus.OPTIMAL
        assert faulted.objective == pytest.approx(clean.objective)
        assert _rung_rules() == [f"resilience-{rung}"]
        fired = {k: v for k, v in instr.snapshot().items() if k.startswith("recovery_") and v}
        assert fired == {counter: 1}

    @pytest.mark.parametrize("lp", sorted(_LADDER_FORMS))
    def test_two_faults_raise_could_not_recover(self, lp):
        # One failed factorization per attempt: nothing is left to try.
        make_form, rung, counter = _LADDER_FORMS[lp]
        form = make_form()
        with faultinject.inject(FaultPlan(fail_factorizations=(1, 2))) as armed:
            with pytest.raises(SolverError, match="could not recover"):
                solve_standard_form(form)
        assert armed.fired[faultinject.FACTORIZE] == 2
        assert _rung_rules() == [f"resilience-{rung}"]
        assert instr.get(counter) == 1

    @pytest.mark.parametrize("stored_factor", [True, False], ids=["stored-factor", "factor-None"])
    def test_warm_numerical_trouble_falls_back_cold(self, stored_factor):
        # The solves are deterministic, so a warm start that hits numerical
        # trouble is not retried warm, whether its token carries a factor to
        # resume or not: it solves cold, counted as a warm stall.
        form = _lp_form()
        solver = SimplexSolver(form)
        sol, basis = solver.solve()
        assert sol.objective == pytest.approx(LP_OPTIMUM)
        if not stored_factor:
            basis = replace(basis, factor=None)
        # Tighten the cover row (lowered as -x - y <= -3) so the stored basis
        # is primal infeasible and the warm dual repair must pivot.
        form.b_ub[0] = -5.0
        with faultinject.inject(FaultPlan(corrupt_pivots=(1,))) as armed:
            sol2, _ = solver.solve(warm_basis=basis)
        assert sol2.status is SolveStatus.OPTIMAL
        assert sol2.objective == pytest.approx(10.0)  # (0, 5)
        assert armed.fired[faultinject.PIVOT_FTRAN] == 1
        assert _rung_rules() == ["resilience-warm-stall"]
        assert instr.get("warm_repair_stalls") == 1

    def test_warm_repair_stall_falls_back_cold(self):
        form = _lp_form()
        solver = SimplexSolver(form)
        _, basis = solver.solve()
        form.b_ub[0] = -5.0
        with faultinject.inject(FaultPlan(stall_warm_repairs=(1,))) as armed:
            sol, _ = solver.solve(warm_basis=basis)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(10.0)
        assert armed.fired[faultinject.WARM_REPAIR] == 1
        assert instr.get("warm_repair_stalls") == 1
        assert "resilience-warm-stall" in _rung_rules()

    def test_fuzz_faulted_solves_match_clean(self):
        """Seeded random LPs: a recovered solve equals the unfaulted one."""
        rng = np.random.default_rng(20260808)
        for trial in range(5):
            n, m = 4, 3
            A = rng.uniform(0.1, 1.0, size=(m, n))
            b = rng.uniform(1.0, 5.0, size=m)
            c = rng.uniform(0.5, 2.0, size=n)
            model = Model(f"fuzz{trial}")
            xs = [model.add_var(f"x{j}") for j in range(n)]
            for i in range(m):
                model.add_constr(
                    lin_sum(A[i, j] * xs[j] for j in range(n)) >= b[i]
                )
            model.set_objective(lin_sum(c[j] * xs[j] for j in range(n)))
            form = model.to_standard_form()
            clean = solve_standard_form(form)
            assert clean.status is SolveStatus.OPTIMAL
            with faultinject.inject(FaultPlan(fail_factorizations=(1,))):
                faulted = solve_standard_form(form)
            assert faulted.status is SolveStatus.OPTIMAL
            assert faulted.objective == pytest.approx(clean.objective)


def test_every_rung_has_a_counter_and_every_recovery_counter_a_rung():
    counters = set(_RUNG_COUNTERS.values())
    assert counters <= set(instr.COUNTER_NAMES)
    assert {name for name in instr.COUNTER_NAMES if name.startswith("recovery_")} <= counters


class TestDeadlinePropagation:
    def test_simplex_deadline_returns_time_limit(self):
        with faultinject.inject(FaultPlan(jump_clock_after=1)):
            sol = solve_standard_form(_lp_form(), deadline=Deadline(3600.0))
        assert sol.status is SolveStatus.TIME_LIMIT
        assert math.isinf(sol.gap)
        assert instr.get("deadline_expiries") == 1

    def test_branch_and_bound_deadline_is_time_limit_not_node_limit(self):
        form = _mip_model().to_standard_form()
        with faultinject.inject(FaultPlan(jump_clock_after=1)):
            sol = solve_milp(form, deadline=Deadline(3600.0))
        assert sol.status is SolveStatus.TIME_LIMIT

    def test_backend_dispatch_threads_deadline(self):
        with faultinject.inject(FaultPlan(jump_clock_after=1)):
            sol = solve_model(
                _mip_model(), backend="branch-and-bound", time_limit=3600.0
            )
        assert sol.status is SolveStatus.TIME_LIMIT

    def test_presolve_deadline_round_trips(self):
        # An expired deadline stops presolve after any prefix of rounds; the
        # reduced form must still solve to the same optimum.
        expired = Deadline(1e-3)
        time.sleep(5e-3)
        reduced, post = presolve(_lp_form(), deadline=expired)
        assert not reduced.proven_infeasible
        sol = post.restore(solve_standard_form(reduced))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(LP_OPTIMUM)

    @pytest.mark.parametrize("bad", [0, -2.5, math.inf, math.nan, "soon"])
    def test_time_limit_option_validated(self, bad):
        with pytest.raises(ValueError, match="time_limit"):
            solve_model(_lp_model(), backend="simplex", time_limit=bad)


class TestScipyStatusMapping:
    def test_limit_code_depends_on_timed(self):
        f = scipy_backend._status_from_scipy
        assert f(False, 1, timed=True) is SolveStatus.TIME_LIMIT
        assert f(False, 1, timed=False) is SolveStatus.ITERATION_LIMIT
        assert f(True, 0, timed=True) is SolveStatus.OPTIMAL
        assert f(False, 2) is SolveStatus.INFEASIBLE
        assert f(False, 3) is SolveStatus.UNBOUNDED
        assert f(False, 4) is SolveStatus.ERROR


class TestBackendFailover:
    def test_no_fault_means_no_degradation(self):
        sol = solve_model(_lp_model(), backend="simplex", fallback="auto")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.degradation is None
        assert instr.get("backend_failovers") == 0

    def test_bad_fallback_value_rejected(self):
        with pytest.raises(SolverError, match="fallback"):
            solve_model(_lp_model(), backend="simplex", fallback="maybe")

    @pytest.mark.skipif(
        not scipy_backend.is_available(), reason="failover target is scipy"
    )
    def test_simplex_fails_over_to_scipy(self):
        with faultinject.inject(FaultPlan(fail_backends=("simplex",))) as armed:
            sol = solve_model(_lp_model(), backend="simplex", fallback="auto")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(LP_OPTIMUM)
        assert armed.fired["backend:simplex"] == 1
        assert sol.degradation == Degradation(
            rungs=("simplex->scipy",),
            guarantee="optimal",
            errors=("simplex: fault injected: backend 'simplex' is down",),
        )
        assert instr.get("backend_failovers") == 1

    @pytest.mark.skipif(
        not scipy_backend.is_available(), reason="primary backend is scipy"
    )
    def test_mip_scipy_fails_over_to_branch_and_bound(self):
        clean = solve_model(_mip_model(), backend="scipy")
        with faultinject.inject(FaultPlan(fail_backends=("scipy",))):
            sol = solve_model(_mip_model(), backend="scipy", fallback="auto")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(clean.objective)
        assert sol.degradation is not None
        assert sol.degradation.rungs == ("scipy->branch-and-bound",)
        assert sol.degradation.guarantee == "optimal"

    def test_scipy_failover_hop_solves_node_lps_in_house(self, monkeypatch):
        # When HiGHS raises, the branch-and-bound hop must not lean on it
        # for its node LPs: it answers on its own, and the chain stops there.
        def down(*args, **kwargs):
            raise SolverError("HiGHS is down")

        monkeypatch.setattr(scipy_backend, "solve_lp", down)
        monkeypatch.setattr(scipy_backend, "solve_mip", down)
        sol = solve_model(_mip_model(), backend="scipy", fallback="auto")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(15.0)
        assert sol.degradation is not None
        assert sol.degradation.rungs == ("scipy->branch-and-bound",)
        assert sol.degradation.guarantee == "optimal"

    @pytest.mark.skipif(
        not scipy_backend.is_available(), reason="failover target is scipy"
    )
    @pytest.mark.parametrize("via", ["one-shot", "session"])
    def test_failed_over_simplex_solve_keeps_the_relaxation(self, via):
        # The simplex backend answers a MILP's LP relaxation (9.5 on this
        # knapsack); its failover hop must answer the same problem, not the
        # MILP (9.0).
        m = _frac_knapsack_model()
        assert solve_model(m, backend="simplex").objective == pytest.approx(9.5)
        with faultinject.inject(FaultPlan(fail_backends=("simplex",))):
            if via == "session":
                sol = m.session(backend="simplex", fallback="auto").solve()
            else:
                sol = solve_model(m, backend="simplex", fallback="auto")
        assert sol.objective == pytest.approx(9.5)
        assert sol.degradation is not None
        assert sol.degradation.rungs == ("simplex->scipy",)

    @pytest.mark.skipif(
        not scipy_backend.is_available(), reason="failover target is scipy"
    )
    @pytest.mark.parametrize("via", ["one-shot", "session"])
    def test_failed_over_branch_and_bound_solve_keeps_integrality(self, via):
        # The other half of the rule: a primary that enforces integrality
        # hands it to its hop, which answers the MILP (9.0), not the
        # relaxation (9.5).  Presolve is off, so its integer reductions
        # cannot close that gap before the hop runs.
        m = _frac_knapsack_model()
        opts = {"backend": "branch-and-bound", "fallback": "auto", "presolve": "off"}
        with faultinject.inject(FaultPlan(fail_backends=("branch-and-bound",))):
            if via == "session":
                sol = m.session(**opts).solve()
            else:
                sol = solve_model(m, **opts)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(9.0)
        assert sol.degradation is not None
        assert sol.degradation.rungs == ("branch-and-bound->scipy",)

    def test_all_backends_down_degrades_to_greedy(self):
        plan = FaultPlan(fail_backends=("simplex", "scipy", "branch-and-bound"))
        with faultinject.inject(plan):
            sol = solve_model(_lp_model(), backend="simplex", fallback="auto")
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.backend == "greedy"
        # The greedy point is feasible but carries no optimality proof.
        assert sol.objective >= LP_OPTIMUM - 1e-9
        assert sol.values["x"] + sol.values["y"] >= 3 - 1e-9
        assert 2 * sol.values["x"] + sol.values["y"] >= 4 - 1e-9
        assert sol.degradation is not None
        if scipy_backend.is_available():
            assert sol.degradation.rungs == ("simplex->scipy", "scipy->greedy")
            assert instr.get("backend_failovers") == 2
        else:
            assert sol.degradation.rungs == ("simplex->greedy",)
            assert instr.get("backend_failovers") == 1
        assert sol.degradation.guarantee == "feasible-only"
        assert len(sol.degradation.errors) == len(sol.degradation.rungs)
        assert instr.get("greedy_degradations") == 1

    def test_fallback_off_propagates_the_failure(self):
        with faultinject.inject(FaultPlan(fail_backends=("simplex",))):
            with pytest.raises(SolverError, match="is down"):
                solve_model(_lp_model(), backend="simplex")

    def test_time_limit_is_an_answer_not_a_failure(self):
        # TIME_LIMIT must end the chain, not trigger another backend.
        with faultinject.inject(FaultPlan(jump_clock_after=1)):
            sol = solve_model(
                _mip_model(),
                backend="branch-and-bound",
                time_limit=3600.0,
                fallback="auto",
            )
        assert sol.status is SolveStatus.TIME_LIMIT
        assert sol.degradation is None
        assert instr.get("backend_failovers") == 0


class TestGreedyDegradation:
    def test_finds_feasible_point_on_cover_lp(self):
        sol = greedy_form_solve(_lp_form())
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.backend == "greedy"
        x, y = sol.values["x"], sol.values["y"]
        assert x + y >= 3 - 1e-9
        assert 2 * x + y >= 4 - 1e-9
        assert sol.objective >= LP_OPTIMUM - 1e-9

    def test_integer_variables_stay_integral(self):
        m = Model("greedy-int")
        x = m.add_var("x", vartype="integer", ub=10)
        y = m.add_var("y", vartype="integer", ub=10)
        m.add_constr(2 * x + 3 * y >= 7, "row")
        m.set_objective(x + y)
        sol = greedy_form_solve(m.to_standard_form())
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.values["x"] == int(sol.values["x"])
        assert sol.values["y"] == int(sol.values["y"])
        assert 2 * sol.values["x"] + 3 * sol.values["y"] >= 7 - 1e-9

    def test_violated_equality_rows_reported_as_error(self):
        m = Model("greedy-eq")
        x = m.add_var("x", ub=5)
        y = m.add_var("y", ub=5)
        m.add_constr(x + y == 4, "eq")
        m.set_objective(x + y)
        sol = greedy_form_solve(m.to_standard_form())
        # The cost-minimizing start (0, 0) violates the equality; greedy
        # refuses rather than pretending.
        assert sol.status is SolveStatus.ERROR

    def test_expired_deadline_reports_time_limit(self):
        d = Deadline(1e-3)
        time.sleep(5e-3)
        sol = greedy_form_solve(_lp_form(), deadline=d)
        assert sol.status is SolveStatus.TIME_LIMIT
        assert math.isinf(sol.gap)
