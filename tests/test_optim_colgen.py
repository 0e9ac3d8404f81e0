"""Tests for restricted-master column generation (``repro.optim.colgen``).

The load-bearing assertion throughout is *exactness*: a decomposed solve
must return the same status and (at tolerance) the same objective as the
monolithic solve of the identical form -- on random LPs and the LP2
placement lowering -- while a MILP never reaches column generation at any
width.  Warm-basis survival across column appends, the width threshold
that switches the in-house backends to column generation, hints and
injected pricing faults are covered alongside.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.optim import (
    ColGenHints,
    FaultPlan,
    Model,
    SolveStatus,
    lin_sum,
)
from repro.optim import colgen, faultinject, scipy_backend
from repro.optim import instrumentation as instr
from repro.optim.branch_and_bound import solve_milp
from repro.optim.errors import SolverError
from repro.optim.resilience import Deadline
from repro.optim.simplex import solve_standard_form

TOL = 1e-6

N_LP_INSTANCES = 40
N_MILP_INSTANCES = 25


@pytest.fixture(autouse=True)
def _clean_counters():
    instr.reset()
    yield
    instr.reset()


@pytest.fixture
def decompose(monkeypatch):
    """Make the in-house backends decompose LPs of every width."""
    monkeypatch.setattr(colgen, "_COLGEN_MIN_COLS", 0)


# ---------------------------------------------------------------------------
# When the in-house backends decompose
# ---------------------------------------------------------------------------


class TestDecompositionThreshold:
    def test_width_threshold(self, monkeypatch):
        form = _lp_model().to_standard_form()
        monkeypatch.setattr(colgen, "_COLGEN_MIN_COLS", form.num_vars)
        assert colgen.decomposes(form)
        monkeypatch.setattr(colgen, "_COLGEN_MIN_COLS", form.num_vars + 1)
        assert not colgen.decomposes(form)

    def test_model_solve_decomposes_past_the_threshold(self, decompose):
        sol = _lp_model().solve(backend="simplex")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.0, abs=TOL)
        assert instr.snapshot()["colgen_rounds"] >= 1


# ---------------------------------------------------------------------------
# Differential fuzz: colgen vs monolithic on the same form
# ---------------------------------------------------------------------------


def _lp_model() -> Model:
    m = Model("colgen-lp")
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constr(x + y >= 3, "cover")
    m.add_constr(2 * x + y >= 4, "capacity")
    m.set_objective(3 * x + 2 * y)
    return m


def _random_model(rng: np.random.Generator, mip: bool) -> Model:
    """A random boxed LP/MILP small enough to solve monolithically."""
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, 6))
    model = Model("colgen-fuzz", sense="max" if rng.random() < 0.5 else "min")
    xs = []
    for i in range(n):
        if mip and rng.random() < 0.4:
            lo = float(rng.integers(-3, 1))
            xs.append(
                model.add_var(f"x{i}", lb=lo, ub=lo + float(rng.integers(1, 6)), vartype="integer")
            )
            continue
        lo = float(rng.uniform(-4, 1))
        hi = lo + float(rng.uniform(0.5, 6))
        if not mip and rng.random() < 0.25:
            hi = np.inf
        xs.append(model.add_var(f"x{i}", lb=lo, ub=hi))
    for row in range(m):
        coeffs = rng.uniform(-2.0, 2.0, size=n)
        coeffs[rng.random(n) < 0.3] = 0.0
        if not np.any(coeffs):
            coeffs[int(rng.integers(0, n))] = 1.0
        expr = lin_sum(float(c) * x for c, x in zip(coeffs, xs) if c)
        rhs = float(rng.uniform(-5.0, 5.0))
        sense = ("<=", ">=", "==")[int(rng.integers(0, 3))]
        if sense == "<=":
            model.add_constr(expr <= rhs, name=f"c{row}")
        elif sense == ">=":
            model.add_constr(expr >= rhs, name=f"c{row}")
        else:
            model.add_constr(expr == rhs, name=f"c{row}")
    objective = rng.uniform(-3.0, 3.0, size=n)
    model.set_objective(lin_sum(float(c) * x for c, x in zip(objective, xs)))
    return model


def _assert_matches(decomposed, monolithic, label: str) -> None:
    assert decomposed.status is monolithic.status, (
        f"{label}: colgen {decomposed.status} != monolithic {monolithic.status}"
    )
    if monolithic.status is SolveStatus.OPTIMAL:
        assert decomposed.objective == pytest.approx(
            monolithic.objective, rel=TOL, abs=TOL
        ), f"{label}: colgen {decomposed.objective} != monolithic {monolithic.objective}"


class TestColgenDifferential:
    def test_random_lps_match_monolithic(self):
        rng = np.random.default_rng(1905)
        for trial in range(N_LP_INSTANCES):
            form = _random_model(rng, mip=False).to_standard_form()
            mono = solve_standard_form(form)
            ours = colgen.solve_form_colgen(form, options={})
            _assert_matches(ours, mono, f"lp trial {trial}")

    def test_wide_milps_take_branch_and_bound(self, decompose):
        # Every form is past the (patched) width threshold, yet a MILP on
        # the branch-and-bound backend makes no colgen round: it is solved
        # by presolve and solve_milp, to solve_milp's own answer.
        rng = np.random.default_rng(4711)
        milps = 0
        for trial in range(N_MILP_INSTANCES):
            model = _random_model(rng, mip=True)
            if not model.is_mip:  # no variable drew integrality: an LP
                continue
            milps += 1
            form = model.to_standard_form()
            assert colgen.decomposes(form)
            mono = solve_milp(form)
            instr.reset()
            ours = model.solve(backend="branch-and-bound")
            assert instr.get("colgen_rounds") == 0, f"milp trial {trial}"
            _assert_matches(ours, mono, f"milp trial {trial}")
        assert milps >= 20

    def test_infeasible_lp_is_reported(self):
        m = Model("colgen-infeasible")
        x = m.add_var("x", lb=0.0, ub=1.0)
        y = m.add_var("y", lb=0.0, ub=1.0)
        m.add_constr(x + y >= 5, "impossible")
        m.set_objective(x + y)
        sol = colgen.solve_form_colgen(m.to_standard_form(), options={})
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded_lp_is_reported(self):
        m = Model("colgen-unbounded")
        x = m.add_var("x", lb=0.0)
        y = m.add_var("y", lb=0.0, ub=2.0)
        m.add_constr(y - x <= 1, "ceiling")
        m.set_objective(-x - y)
        sol = colgen.solve_form_colgen(m.to_standard_form(), options={})
        assert sol.status is SolveStatus.UNBOUNDED

    def test_counters_record_pricing_work(self):
        form = _lp_model().to_standard_form()
        sol = colgen.solve_form_colgen(form, options={})
        assert sol.status is SolveStatus.OPTIMAL
        snap = instr.snapshot()
        assert snap["colgen_rounds"] >= 1
        assert snap["master_resolves"] >= 1
        assert snap["columns_priced"] >= form.num_vars

    def test_time_limit_reports_honestly(self):
        form = _random_model(np.random.default_rng(7), mip=False).to_standard_form()
        deadline = Deadline(30.0)
        plan = FaultPlan(jump_clock_after=1)
        with faultinject.inject(plan):
            sol = colgen.solve_form_colgen(form, options={}, deadline=deadline)
        assert sol.status is SolveStatus.TIME_LIMIT
        assert not sol.values and math.isinf(sol.gap)  # no point, no finite gap


# ---------------------------------------------------------------------------
# Hints + warm bases across column appends
# ---------------------------------------------------------------------------


class TestHintsAndWarmBases:
    def test_hinted_initial_columns_are_respected(self):
        form = _lp_model().to_standard_form()
        hints = ColGenHints(initial_columns=(1,))
        engine = colgen.ColumnGeneration(form, hints=hints)
        sol = engine.solve_lp(None)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.0, abs=TOL)

    def test_master_grows_monotonically_across_rounds(self):
        rng = np.random.default_rng(99)
        form = _random_model(rng, mip=False).to_standard_form()
        engine = colgen.ColumnGeneration(
            form, hints=ColGenHints(initial_columns=(0,))
        )
        sol = engine.solve_lp(None)
        mono = solve_standard_form(form)
        _assert_matches(sol, mono, "hinted engine")
        assert len(engine.active_cols) <= form.num_vars

    def test_warm_token_survives_column_appends(self):
        # A cover LP whose colgen run takes several rounds: the warm token
        # from round k seeds round k+1's master after new columns appended.
        m = Model("colgen-cover")
        xs = [m.add_var(f"x{i}", lb=0.0, ub=1.0) for i in range(12)]
        m.add_constr(lin_sum(xs) >= 6, "cover")
        for i in range(0, 12, 2):
            m.add_constr(xs[i] + xs[i + 1] >= 0.5, f"pair{i}")
        m.set_objective(lin_sum(float(1 + (i % 3)) * x for i, x in enumerate(xs)))
        form = m.to_standard_form()
        engine = colgen.ColumnGeneration(form, hints=ColGenHints(initial_columns=(0, 1)))
        sol = engine.solve_lp(None)
        mono = solve_standard_form(form)
        _assert_matches(sol, mono, "warm appends")
        snap = instr.snapshot()
        assert snap["master_resolves"] >= 2, "expected a multi-round run"
        assert engine._warm is not None, "warm basis token was not retained"

    def test_session_resolve_reuses_colgen_state(self, decompose):
        m = Model("colgen-session")
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constr(x + y >= 3, "cover")
        m.add_constr(2 * x + y >= 4, "capacity")
        m.set_objective(3 * x + 2 * y)
        session = m.session(backend="simplex")
        first = session.solve()
        assert first.status is SolveStatus.OPTIMAL
        assert first.objective == pytest.approx(7.0, abs=TOL)
        engine = session._colgen
        assert engine is not None
        session.update_constraint_rhs("cover", 4.0)
        second = session.solve()
        assert second.status is SolveStatus.OPTIMAL
        assert second.objective == pytest.approx(8.0, abs=TOL)
        assert session._colgen is engine, "colgen state was rebuilt, not reused"


# ---------------------------------------------------------------------------
# Pricing-fault recovery
# ---------------------------------------------------------------------------


class TestCorruptPricingRecovery:
    def test_single_corruption_raises(self):
        # Re-pricing the same duals against the same matrix could only
        # repeat the failure, so the first bad pass raises.
        form = _lp_model().to_standard_form()
        plan = FaultPlan(corrupt_pricing=(1,))
        with faultinject.inject(plan) as armed:
            with pytest.raises(SolverError, match="pricing"):
                colgen.ColumnGeneration(form).solve_lp()
        assert armed.fired["pricing"] == 1
        assert instr.get("colgen_rounds") == 1

    @pytest.fixture(params=["as-installed", "scipy-masked"])
    def failover_chain(self, request, monkeypatch):
        """Run each failover test on the installed chain and once more with
        SciPy masked, so the greedy hop is reached wherever HiGHS is too."""
        if request.param == "scipy-masked":
            monkeypatch.setattr(scipy_backend, "is_available", lambda: False)

    @staticmethod
    def _assert_failed_over(sol):
        """HiGHS answers the poisoned solve; without SciPy, greedy does."""
        assert sol.degradation is not None
        if scipy_backend.is_available():
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(7.0, abs=TOL)
            assert sol.degradation.rungs == ("simplex->scipy",)
        else:
            assert sol.status is SolveStatus.FEASIBLE
            assert sol.degradation.rungs == ("simplex->greedy",)

    def test_fallback_rescues_poisoned_pricing(self, decompose, failover_chain):
        with faultinject.inject(FaultPlan(corrupt_pricing=(1,))):
            sol = _lp_model().solve(backend="simplex", fallback="auto")
        self._assert_failed_over(sol)

    def test_session_fallback_keeps_colgen_state(self, decompose, failover_chain):
        # The session's column-generation path fails over through the same
        # chain as a one-shot solve, under the session's one deadline, and
        # keeps its driver for the next (clean) solve.
        session = _lp_model().session(backend="simplex", fallback="auto")
        with faultinject.inject(FaultPlan(corrupt_pricing=(1,))):
            sol = session.solve(time_limit=60.0)
        engine = session._colgen
        assert engine is not None
        self._assert_failed_over(sol)
        clean = session.solve()
        assert session._colgen is engine
        assert clean.status is SolveStatus.OPTIMAL
        assert clean.objective == pytest.approx(7.0, abs=TOL)
        assert clean.degradation is None
