"""Tests for the pre-solve static analyzer (:mod:`repro.optim.analysis`).

Per-rule units on hand-built broken forms (validation rules and the
presolve dry run's ``presolve-*`` findings), the ``check=`` solver option
wiring (off / warn / strict) across backends and sessions, the diagnostics
reporter, and a property test running the analyzer in strict mode over the
differential-fuzz model corpus: feasible instances must produce zero
error-severity findings, and seeded corruptions must be caught.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.optim import (
    Diagnostic,
    Model,
    ModelAnalysisError,
    SolverError,
    SolveStatus,
    analyze_form,
)
from repro.optim import diagnostics as diag
from repro.optim import instrumentation as instr
from repro.optim.analysis import ERROR, INFO, WARNING, enforce, has_errors
from repro.optim.model import StandardForm
from repro.optim.sparse import SparseMatrix

from tests.test_optim_differential import _random_model


def _form(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    lb=None,
    ub=None,
    integrality=None,
    **kwargs,
):
    """Hand-build a StandardForm from lists; defaults give a well-formed LP."""
    c = np.asarray(c, dtype=kwargs.pop("c_dtype", float))
    n = c.shape[0] if c.ndim == 1 else 0
    def matrix(rows):
        return SparseMatrix.from_dense(
            np.asarray(rows if rows is not None else np.zeros((0, n)), dtype=float)
        )
    return StandardForm(
        c=c,
        A_ub=matrix(A_ub),
        b_ub=np.asarray(b_ub if b_ub is not None else [], dtype=float),
        A_eq=matrix(A_eq),
        b_eq=np.asarray(b_eq if b_eq is not None else [], dtype=float),
        lb=np.asarray(lb if lb is not None else np.zeros(n), dtype=float),
        ub=np.asarray(ub if ub is not None else np.full(n, np.inf), dtype=float),
        integrality=np.asarray(integrality if integrality is not None else np.zeros(n), dtype=float),
        **kwargs,
    )


def _rules(diagnostics, severity=None):
    return sorted(
        {d.rule for d in diagnostics if severity is None or d.severity == severity}
    )


class TestPerRuleUnits:
    def test_clean_model_is_clean(self):
        form = _form([1.0, 2.0], A_ub=[[1.0, 1.0]], b_ub=[4.0], ub=[5.0, 5.0])
        assert analyze_form(form) == []

    def test_shape_mismatch_rhs(self):
        form = _form([1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0, 2.0])
        found = analyze_form(form)
        assert _rules(found, ERROR) == ["shape-mismatch"]

    def test_shape_mismatch_bounds_and_names(self):
        form = _form([1.0, 1.0], lb=[0.0], ub=[1.0, 1.0, 1.0], names=["x"])
        assert _rules(analyze_form(form), ERROR) == ["shape-mismatch"]

    def test_shape_mismatch_aborts_row_passes(self):
        # The mismatched rhs would crash / nonsense the row passes if run.
        form = _form([1.0], A_ub=[[np.inf]], b_ub=[1.0, np.nan])
        found = analyze_form(form)
        assert all(d.rule in ("shape-mismatch", "dtype") for d in found)

    def test_dtype(self):
        form = _form([1, 2], c_dtype=np.int64)
        assert "dtype" in _rules(analyze_form(form), ERROR)

    def test_nonfinite_objective(self):
        form = _form([np.nan, 1.0], names=["x", "y"])
        found = [d for d in analyze_form(form) if d.rule == "nonfinite-objective"]
        assert len(found) == 1 and found[0].col == 0 and "'x'" in found[0].message

    def test_nonfinite_matrix_entry(self):
        form = _form([1.0, 1.0], A_ub=[[np.inf, 1.0]], b_ub=[1.0])
        found = [d for d in analyze_form(form) if d.rule == "nonfinite-matrix"]
        assert len(found) == 1
        assert (found[0].block, found[0].row, found[0].col) == ("ub", 0, 0)

    def test_nonfinite_rhs(self):
        form = _form([1.0], A_eq=[[1.0]], b_eq=[np.nan])
        found = [d for d in analyze_form(form) if d.rule == "nonfinite-rhs"]
        assert len(found) == 1 and found[0].block == "eq"

    def test_nan_bound(self):
        form = _form([1.0], lb=[np.nan])
        assert "nan-bound" in _rules(analyze_form(form), ERROR)

    def test_bounds_cross(self):
        form = _form([1.0, 1.0], lb=[0.0, 2.0], ub=[1.0, 1.0])
        found = [d for d in analyze_form(form) if d.rule == "presolve-infeasible"]
        assert len(found) == 1 and "column 1" in found[0].message

    def test_row_infeasible_over_bounds(self):
        # x1 + x2 >= 3 over [0,1]^2, lowered as -x1 - x2 <= -3.
        form = _form([0.0, 0.0], A_ub=[[-1.0, -1.0]], b_ub=[-3.0], ub=[1.0, 1.0])
        found = [d for d in analyze_form(form) if d.rule == "presolve-infeasible"]
        assert len(found) == 1 and found[0].severity == ERROR

    def test_row_infeasible_after_a_bound_row(self):
        # x >= 1 turns into a bound, and then x + y <= 0.5 over [0, 1]^2 has
        # minimum activity 1: infeasible, though neither row is over the
        # original bounds.
        m = Model("chained", sense="min")
        x = m.add_var("x", ub=1.0)
        y = m.add_var("y", ub=1.0)
        m.add_constr(x >= 1.0, name="floor")
        m.add_constr(x + y <= 0.5, name="cap")
        m.set_objective(x + y)
        with pytest.raises(ModelAnalysisError, match="presolve-infeasible"):
            m.solve(check="strict")

    def test_eq_row_unreachable_rhs(self):
        form = _form([0.0], A_eq=[[1.0]], b_eq=[5.0], ub=[1.0])
        assert "presolve-infeasible" in _rules(analyze_form(form), ERROR)

    def test_empty_row_contradictory_rhs(self):
        form = _form([1.0], A_eq=[[0.0]], b_eq=[2.0])
        found = [d for d in analyze_form(form) if d.rule == "presolve-infeasible"]
        assert len(found) == 1 and "empty" in found[0].message

    def test_empty_row_satisfied_is_removed(self):
        form = _form([1.0], A_ub=[[0.0]], b_ub=[1.0])
        found = [d for d in analyze_form(form) if d.rule == "presolve-rows"]
        assert len(found) == 1 and found[0].severity == INFO

    def test_row_redundant_info(self):
        # x <= 9 while ub already caps x at 1.
        form = _form(
            [1.0], A_ub=[[1.0]], b_ub=[9.0], ub=[1.0], row_map={"loose": ("ub", 0, 1.0)}
        )
        found = [d for d in analyze_form(form) if d.rule == "presolve-rows"]
        assert len(found) == 1 and found[0].severity == INFO
        assert "'loose'" in found[0].message

    def test_integrality_fractional_fixed(self):
        form = _form([1.0], lb=[0.5], ub=[0.5], integrality=[1.0])
        found = [d for d in analyze_form(form) if d.rule == "presolve-infeasible"]
        assert len(found) == 1 and "column 0" in found[0].message

    def test_integrality_window_without_integer(self):
        form = _form([1.0], lb=[0.2], ub=[0.8], integrality=[1.0])
        assert "presolve-infeasible" in _rules(analyze_form(form), ERROR)

    def test_integrality_window_ok(self):
        form = _form([1.0], lb=[0.2], ub=[1.2], integrality=[1.0])
        assert not has_errors(analyze_form(form))

    def test_duplicate_ub_rows(self):
        form = _form(
            [1.0, 1.0],
            A_ub=[[1.0, 2.0], [2.0, 4.0]],
            b_ub=[1.0, 5.0],
            ub=[1.0, 1.0],
            row_map={"tight": ("ub", 0, 1.0), "loose": ("ub", 1, 1.0)},
        )
        found = [d for d in analyze_form(form) if d.rule == "presolve-rows"]
        assert len(found) == 1
        assert found[0].message.endswith("removes 1 of 2 constraint rows: 'loose'")

    def test_removed_rows_listed_up_to_five(self):
        # Seven copies of x <= 9 while ub caps x at 1: all redundant.
        form = _form(
            [1.0],
            A_ub=[[1.0]] * 7,
            b_ub=[9.0] * 7,
            ub=[1.0],
            row_map={f"r{i}": ("ub", i, 1.0) for i in range(7)},
        )
        (found,) = [d for d in analyze_form(form) if d.rule == "presolve-rows"]
        assert "'r0', 'r1', 'r2', 'r3', 'r4', ... 2 more" in found.message
        assert "'r5'" not in found.message

    def test_parallel_inconsistent_eq_rows(self):
        # x + y == 1 and 2x + 2y == 4 cannot both hold.
        form = _form(
            [1.0, 1.0],
            A_eq=[[1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 4.0],
            ub=[9.0, 9.0],
        )
        found = [d for d in analyze_form(form) if d.rule == "presolve-infeasible"]
        assert len(found) == 1 and "parallel" in found[0].message

    def test_parallel_consistent_eq_rows_info_only(self):
        form = _form(
            [1.0, 1.0],
            A_eq=[[1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 2.0],
            ub=[9.0, 9.0],
        )
        found = analyze_form(form)
        assert "presolve-rows" in _rules(found, INFO)
        assert not has_errors(found)

    def test_dangling_column_info(self):
        form = _form([0.0, 1.0], A_ub=[[1.0, 0.0]], b_ub=[1.0], ub=[2.0, 2.0])
        found = [d for d in analyze_form(form) if d.rule == "presolve-cols"]
        assert len(found) == 1 and found[0].severity == INFO

    def test_scaling_row(self):
        form = _form(
            [1.0, 1.0],
            A_ub=[[1e-6, 1e6]],
            b_ub=[1.0],
            ub=[1.0, 1.0],
        )
        assert "scaling-row" in _rules(analyze_form(form), WARNING)

    def test_scaling_global_without_row_spread(self):
        form = _form(
            [1.0, 1.0],
            A_ub=[[1e-6, 2e-6], [1e6, 2e6]],
            b_ub=[1.0, 1e7],
            ub=[1.0, 1.0],
        )
        found = analyze_form(form)
        assert "scaling-global" in _rules(found, WARNING)
        assert "scaling-row" not in _rules(found)

    def test_findings_sorted_most_severe_first(self):
        # A badly scaled row (warning) plus x0 >= 3 over x0 in [0, 1]: presolve
        # removes that row as a bound (info), then refutes the bounds (error).
        form = _form(
            [1.0, 1.0],
            A_ub=[[1e-6, 1e6], [-1.0, 0.0]],
            b_ub=[1.0, -3.0],
            ub=[1.0, 1.0],
        )
        severities = [d.severity for d in analyze_form(form)]
        assert set(severities) == {ERROR, WARNING, INFO}
        rank = {ERROR: 0, WARNING: 1, INFO: 2}
        assert severities == sorted(severities, key=rank.__getitem__)

    def test_instrumentation_counters(self):
        instr.reset()
        analyze_form(_form([np.nan]))
        snap = instr.snapshot()
        assert snap["analyzer_runs"] == 1
        assert snap["analyzer_findings"] >= 1


class TestEnforceAndWiring:
    def setup_method(self):
        self._previous_handler = diag.set_handler(None)

    def teardown_method(self):
        diag.set_handler(self._previous_handler)

    def _broken_model(self):
        m = Model("broken", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        m.add_constr(x >= 3.0, name="impossible")
        m.set_objective(x)
        return m

    def test_enforce_off_skips(self):
        assert enforce(self._broken_model().to_standard_form(), "off") == []

    def test_enforce_unknown_mode(self):
        with pytest.raises(ModelAnalysisError, match="check mode"):
            enforce(self._broken_model().to_standard_form(), "loud")

    def test_enforce_warn_routes_through_handler(self):
        captured = []
        diag.set_handler(lambda label, found: captured.append((label, list(found))))
        found = enforce(self._broken_model().to_standard_form(), "warn", label="lbl")
        assert found and captured and captured[0][0] == "lbl"
        assert [d.rule for d in captured[0][1]] == [d.rule for d in found]

    def test_enforce_strict_raises_with_diagnostics(self):
        with pytest.raises(ModelAnalysisError, match="presolve-infeasible") as err:
            enforce(self._broken_model().to_standard_form(), "strict", label="lbl")
        assert all(isinstance(d, Diagnostic) for d in err.value.diagnostics)
        assert all(d.severity == ERROR for d in err.value.diagnostics)

    def test_enforce_strict_passes_warnings(self):
        m = Model("dup", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        m.add_constr(x <= 0.75, name="a")
        m.add_constr(x <= 0.9, name="b")  # parallel, redundant: info only
        m.set_objective(-1.0 * x)
        found = enforce(m.to_standard_form(), "strict")
        assert found and not has_errors(found)

    @pytest.mark.parametrize("backend", ["simplex", "auto"])
    def test_solve_check_strict_raises(self, backend):
        with pytest.raises(ModelAnalysisError):
            self._broken_model().solve(backend=backend, check="strict")

    def test_solve_check_warn_still_solves(self):
        captured = []
        diag.set_handler(lambda label, found: captured.append(label))
        sol = self._broken_model().solve(backend="simplex", check="warn")
        assert sol.status is SolveStatus.INFEASIBLE
        assert captured == ["broken"]

    def test_solve_check_default_off(self):
        captured = []
        diag.set_handler(lambda label, found: captured.append(label))
        sol = self._broken_model().solve(backend="simplex")
        assert sol.status is SolveStatus.INFEASIBLE
        assert captured == []

    def test_solve_check_invalid_value(self):
        with pytest.raises(SolverError, match="check option"):
            self._broken_model().solve(backend="simplex", check="nope")

    def test_clean_model_solves_under_strict(self):
        m = Model("clean", sense="max")
        x = m.add_var("x", lb=0.0, ub=4.0)
        y = m.add_var("y", lb=0.0, ub=4.0)
        m.add_constr(x + y <= 4.0, name="cap")
        m.set_objective(3.0 * x + 2.0 * y)
        sol = m.solve(backend="simplex", check="strict")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(12.0)

    def test_session_check_reanalyzes_patched_form(self):
        m = Model("patched", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        m.add_constr(x <= 0.5, name="cap")
        m.set_objective(-1.0 * x)
        session = m.session(backend="simplex", check="strict")
        assert session.solve().status is SolveStatus.OPTIMAL
        # Patch the rhs so the row is trivially violated over the bounds:
        # x <= -2 with x in [0, 1].
        session.update_constraint_rhs("cap", -2.0)
        with pytest.raises(ModelAnalysisError, match="presolve-infeasible"):
            session.solve()
        # Per-call override relaxes the session default.
        assert session.solve(check="off").status is SolveStatus.INFEASIBLE

    def test_session_analyze_method(self):
        m = Model("sess", sense="min")
        x = m.add_var("x", lb=0.0, ub=1.0)
        m.add_constr(x <= 0.5, name="cap")
        m.set_objective(x)
        session = m.session(backend="simplex")
        assert not has_errors(session.analyze(mode="warn"))
        session.update_var_bounds(x, lb=0.75)  # cap is now infeasible
        found = session.analyze(mode="warn")
        assert "presolve-infeasible" in _rules(found, ERROR)
        with pytest.raises(SolverError, match="check option"):
            session.analyze(mode="bogus")


class TestDiagnosticsReporter:
    def test_format_report_tallies(self):
        found = analyze_form(
            _form([np.nan, 1.0], A_ub=[[1e-4, 1e5]], b_ub=[1.0], ub=[1.0, 1.0])
        )
        text = diag.format_report(found, label="m")
        assert "1 error" in text and "1 warning" in text
        assert "nonfinite-objective" in text

    def test_format_report_clean(self):
        assert "clean" in diag.format_report([], label="m")

    def test_set_handler_returns_previous(self):
        seen = []

        def handler(label, found):
            seen.append(label)

        previous = diag.set_handler(handler)
        try:
            diag.report([Diagnostic(WARNING, "scaling-row", "msg")], label="j")
        finally:
            restored = diag.set_handler(previous)
        assert restored is handler
        assert seen == ["j"]


class TestFuzzCorpusProperty:
    """Strict-mode analyzer over the differential-fuzz model corpus."""

    N_INSTANCES = 250

    def test_no_false_positives_and_infeasibility_findings_are_true(self):
        rng = np.random.default_rng(20260808)
        never_expected = {
            "shape-mismatch",
            "dtype",
            "nonfinite-objective",
            "nonfinite-matrix",
            "nonfinite-rhs",
            "nan-bound",
        }
        flagged_infeasible = 0
        for k in range(self.N_INSTANCES):
            model = _random_model(rng, mip=bool(k % 2))
            form = model.to_standard_form()
            found = analyze_form(form)
            structural = [d for d in found if d.rule in never_expected]
            assert not structural, (k, [str(d) for d in structural])
            # Presolve off: the oracle must not be the code under test.
            sol = model.solve(check="off", presolve="off")
            if has_errors(found):
                # The only error rule reachable here is the presolve dry
                # run's refutation; the solver must agree.
                assert sol.status is SolveStatus.INFEASIBLE, (
                    k,
                    sol.status,
                    [str(d) for d in found],
                )
                flagged_infeasible += 1
            elif sol.status is SolveStatus.OPTIMAL:
                # Feasible instance: strict mode must not block the solve.
                strict = model.solve(check="strict")
                assert strict.status is SolveStatus.OPTIMAL
        # The generator produces some trivially infeasible rows; make sure
        # the property test actually exercised the error path.
        assert flagged_infeasible >= 1

    @pytest.mark.parametrize(
        "corrupt, expected_rule, needs_rows",
        [
            (lambda f: f.c.__setitem__(0, np.nan), "nonfinite-objective", False),
            (
                lambda f: (f.lb.__setitem__(0, 2.0), f.ub.__setitem__(0, 1.0)),
                "presolve-infeasible",
                False,
            ),
            (
                # Box every variable so the row activity range is finite,
                # then demand an unreachably negative rhs.
                lambda f: (
                    f.lb.__setitem__(slice(None), 0.0),
                    f.ub.__setitem__(slice(None), 1.0),
                    f.b_ub.__setitem__(slice(None), -1e18),
                ),
                "presolve-infeasible",
                True,
            ),
            (lambda f: f.lb.__setitem__(0, np.nan), "nan-bound", False),
        ],
    )
    def test_seeded_corruptions_are_caught(self, corrupt, expected_rule, needs_rows):
        rng = np.random.default_rng(99)
        caught = 0
        for _ in range(40):
            model = _random_model(rng, mip=False)
            form = model.to_standard_form()
            if needs_rows and form.b_ub.size == 0:
                continue
            corrupt(form)
            found = analyze_form(form)
            if expected_rule in _rules(found, ERROR):
                caught += 1
                with pytest.raises(ModelAnalysisError):
                    enforce(form, "strict", diagnostics=found)
        assert caught >= 30

    def test_corrupted_integrality_caught(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, mip=True)
        form = model.to_standard_form()
        j = int(np.flatnonzero(np.asarray(form.integrality) != 0)[0])
        form.lb[j] = 0.25
        form.ub[j] = 0.75
        found = analyze_form(form)
        assert "presolve-infeasible" in _rules(found, ERROR)

    def test_corrupted_shapes_caught(self):
        rng = np.random.default_rng(11)
        model = _random_model(rng, mip=False)
        form = model.to_standard_form()
        broken = dataclasses.replace(form, b_ub=np.append(form.b_ub, 1.0))
        assert "shape-mismatch" in _rules(analyze_form(broken), ERROR)
