"""Cross-backend differential fuzzing of the in-house solvers against HiGHS.

Random LPs (free / shifted / bounded variables, all three constraint senses,
both objective senses) and random MILPs are solved by the in-house simplex /
branch-and-bound and by SciPy's HiGHS backend; statuses must match and
objectives must agree within tolerance.  This suite gates the vectorized
simplex kernels and the warm-started incremental branch and bound: any
pricing, ratio-test, canonicalization or warm-start regression shows up as a
status or objective mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim import Model, SolveStatus, SolverSession, lin_sum
from repro.optim import branch_and_bound, scipy_backend, simplex
from repro.optim.branch_and_bound import solve_milp
from repro.optim.simplex import solve_standard_form

TOL = 1e-5

#: Instance counts demanded by the differential-coverage acceptance bar.
N_LP_INSTANCES = 220
N_MILP_INSTANCES = 160

pytestmark = pytest.mark.skipif(
    not scipy_backend.is_available(), reason="differential fuzzing needs the HiGHS reference"
)


def _random_variable(model: Model, rng: np.random.Generator, index: int, mip: bool):
    """A random variable drawn from the free/shifted/bounded/integer classes."""
    kind = rng.integers(0, 5 if mip else 4)
    if mip and kind == 4:
        if rng.random() < 0.5:
            return model.add_var(f"x{index}", vartype="binary")
        lo = float(rng.integers(-3, 1))
        return model.add_var(f"x{index}", lb=lo, ub=lo + float(rng.integers(1, 6)), vartype="integer")
    if kind == 0:  # free
        return model.add_var(f"x{index}", lb=-np.inf)
    if kind == 1:  # shifted (possibly negative) lower bound, open above
        return model.add_var(f"x{index}", lb=float(rng.uniform(-4, 2)))
    if kind == 2:  # boxed
        lo = float(rng.uniform(-4, 1))
        return model.add_var(f"x{index}", lb=lo, ub=lo + float(rng.uniform(0.5, 6)))
    # non-negative with finite upper bound
    return model.add_var(f"x{index}", lb=0.0, ub=float(rng.uniform(1, 8)))


def _random_model(rng: np.random.Generator, mip: bool) -> Model:
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    model = Model("fuzz", sense="max" if rng.random() < 0.5 else "min")
    xs = [_random_variable(model, rng, i, mip) for i in range(n)]
    if mip:
        # Keep every variable boxed so unbounded MILPs (where HiGHS's status
        # reporting is version-dependent) cannot arise; status coverage for
        # unbounded MILPs is asserted separately in test_optim_solvers.py.
        for var in xs:
            if np.isinf(var.lb):
                var.lb = float(rng.integers(-5, 0))
            if np.isinf(var.ub):
                var.ub = var.lb + float(rng.integers(1, 8))
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


def _grid_objective(model: Model, rng: np.random.Generator) -> bool:
    """Re-draw the objective on the integer grid.

    Each integer variable gets a nonzero whole coefficient, each continuous
    one 0, plus a fractional constant, so every integer point costs a whole
    number plus that offset.  Returns False, leaving the model untouched,
    when it has no integer variable.
    """
    integers = [var for var in model.variables if var.is_integer]
    if not integers:
        return False
    coeffs = rng.choice([-3, -2, -1, 1, 2, 3], size=len(integers))
    model.set_objective(
        lin_sum(float(c) * var for c, var in zip(coeffs, integers)) + float(rng.uniform(-2, 2))
    )
    return True


def _placement_model(rng: np.random.Generator) -> Model:
    """A random passive-placement MILP in the shape of the paper's LP2.

    Binary taps ``x`` cost 1-3 each, and zero-cost continuous ``d_t`` in
    [0, 1] count traffic ``t`` as monitored only if a tap sits on one of its
    links; the monitored volume must reach a coverage target.
    """
    n_links, n_traffics = int(rng.integers(8, 15)), int(rng.integers(10, 25))
    model = Model("placement", sense="min")
    xs = [model.add_var(f"x{e}", vartype="binary") for e in range(n_links)]
    ds = [model.add_var(f"d{t}", ub=1.0) for t in range(n_traffics)]
    volumes = rng.uniform(0.5, 5.0, size=n_traffics)
    for t, d in enumerate(ds):
        links = rng.choice(n_links, size=int(rng.integers(1, 4)), replace=False)
        model.add_constr(d <= lin_sum(xs[int(e)] for e in links), name=f"cov{t}")
    target = float(rng.uniform(0.6, 0.95)) * float(volumes.sum())
    model.add_constr(lin_sum(float(v) * d for v, d in zip(volumes, ds)) >= target, name="k")
    model.set_objective(lin_sum(float(c) * x for c, x in zip(rng.integers(1, 4, size=n_links), xs)))
    return model


def _assert_matches(ours, reference, label: str) -> None:
    __tracebackhint__ = True
    assert ours.status is reference.status, (
        f"{label}: status {ours.status} != HiGHS {reference.status}"
    )
    if reference.status is SolveStatus.OPTIMAL:
        assert ours.objective == pytest.approx(reference.objective, rel=TOL, abs=TOL), (
            f"{label}: objective {ours.objective} != HiGHS {reference.objective}"
        )


class TestLPDifferential:
    # The primal loop prices with Dantzig at fuzz sizes; the "devex" leg
    # lowers the devex size threshold to 0, forcing the reference-framework
    # pricer + partial pricing through the exact same instance stream, so a
    # devex-specific pricing or dual-update bug cannot hide behind the size
    # rule.  The "slack-start" leg lowers the all-slack dual start's size
    # threshold to 0, so every LP without equality rows cold-starts through
    # the dual loop.
    @pytest.mark.parametrize("leg", ["auto", "devex", "slack-start"])
    def test_simplex_matches_highs_on_random_lps(self, leg, monkeypatch):
        if leg == "devex":
            monkeypatch.setattr(simplex, "_DEVEX_MIN_COLS", 0)
        slack_starts = [0]
        if leg == "slack-start":
            monkeypatch.setattr(simplex, "_SLACK_START_MIN_COLS", 0)
            build = simplex._slack_basis

            def counted(lp):
                slack_starts[0] += 1
                return build(lp)

            monkeypatch.setattr(simplex, "_slack_basis", counted)
        rng = np.random.default_rng(20260729)
        statuses = {status: 0 for status in SolveStatus}
        checked = 0
        attempts = 0
        while checked < N_LP_INSTANCES:
            attempts += 1
            assert attempts < 20 * N_LP_INSTANCES, "fuzz generator degenerated"
            model = _random_model(rng, mip=False)
            form = model.to_standard_form()
            reference = scipy_backend.solve_lp(form)
            if reference.status not in (
                SolveStatus.OPTIMAL,
                SolveStatus.INFEASIBLE,
                SolveStatus.UNBOUNDED,
            ):
                continue  # numerical-trouble statuses have no defined mirror
            ours = solve_standard_form(form)
            _assert_matches(ours, reference, f"LP #{checked} leg={leg}")
            statuses[reference.status] += 1
            checked += 1
        # The generator must actually exercise every LP status class.
        assert statuses[SolveStatus.OPTIMAL] >= 50
        assert statuses[SolveStatus.INFEASIBLE] >= 10
        assert statuses[SolveStatus.UNBOUNDED] >= 10
        if leg == "slack-start":
            # About a quarter of the stream has no equality rows.
            assert slack_starts[0] >= 40


class TestMILPDifferential:
    def _run(self, n_instances: int, seed: int, on_grid: bool = False) -> None:
        rng = np.random.default_rng(seed)
        # The grid leg re-draws objectives from a generator of its own, so its
        # constraints are the base stream's.
        grid_rng = np.random.default_rng(seed + 1)
        statuses = {status: 0 for status in SolveStatus}
        for index in range(n_instances):
            model = _random_model(rng, mip=True)
            if on_grid and not _grid_objective(model, grid_rng):
                continue
            form = model.to_standard_form()
            assert branch_and_bound._objective_on_grid(form) is on_grid
            reference = scipy_backend.solve_mip(form)
            if reference.status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
                continue
            ours = solve_milp(form)
            _assert_matches(ours, reference, f"MILP #{index} seed={seed}")
            statuses[reference.status] += 1
        assert statuses[SolveStatus.OPTIMAL] >= n_instances // 4
        assert statuses[SolveStatus.INFEASIBLE] >= 5

    def test_branch_and_bound_with_inhouse_nodes_matches_highs(self):
        # The simplex node solver with per-node warm starts: the
        # configuration the vectorization refactor must not regress.
        self._run(N_MILP_INSTANCES, seed=477)

    def test_branch_and_bound_with_devex_nodes_matches_highs(self, monkeypatch):
        # Same stream with the primal loop pricing by devex at every size:
        # cold root solves, warm re-solves and the devex dual-repair
        # weighting all against HiGHS.
        monkeypatch.setattr(simplex, "_DEVEX_MIN_COLS", 0)
        self._run(N_MILP_INSTANCES, seed=477)

    def test_branch_and_bound_matches_highs_on_second_stream(self):
        self._run(80, seed=478)

    def test_integer_grid_objectives_match_highs(self):
        # The same stream with whole costs on the integer columns and none on
        # the continuous ones: every node is fathomed one grid step below the
        # incumbent, and every status and objective must still match HiGHS.
        self._run(N_MILP_INSTANCES, seed=477, on_grid=True)

    def test_grid_fathoming_on_placements_matches_highs(self):
        # The fuzz stream's trees are a few nodes deep.  Fathomed 1e-9 below
        # the incumbent, these 40 placements explore 470 nodes; on the grid
        # they explore 108.
        from repro.optim import solve_model

        rng = np.random.default_rng(11)
        for index in range(40):
            model = _placement_model(rng)
            form = model.to_standard_form()
            assert branch_and_bound._objective_on_grid(form)
            reference = scipy_backend.solve_mip(form)
            assert reference.status is SolveStatus.OPTIMAL
            ours = solve_model(model, backend="branch-and-bound")
            _assert_matches(ours, reference, f"placement #{index}")


class TestPresolveCutsDifferential:
    """Presolve and cutting planes are transforms, not relaxations: with them
    on or off, every status and objective must still match HiGHS exactly."""

    def test_presolve_on_off_agree_on_random_lps(self):
        from repro.optim import solve_model
        from repro.optim.presolve import presolve

        rng = np.random.default_rng(20260808)
        checked = 0
        for _ in range(80):
            model = _random_model(rng, mip=False)
            form = model.to_standard_form()
            reference = scipy_backend.solve_lp(form)
            if reference.status not in (
                SolveStatus.OPTIMAL,
                SolveStatus.INFEASIBLE,
                SolveStatus.UNBOUNDED,
            ):
                continue
            on = solve_model(model, backend="simplex", presolve="on")
            off = solve_model(model, backend="simplex", presolve="off")
            _assert_matches(on, reference, f"LP presolve=on #{checked}")
            _assert_matches(off, reference, f"LP presolve=off #{checked}")
            if reference.status is SolveStatus.OPTIMAL:
                # The lifted point must satisfy the *original* rows, not just
                # reproduce the objective.
                x = np.array([on.values[name] for name in form.names])
                if form.b_ub.size:
                    assert np.all(form.A_ub.matvec(x) <= form.b_ub + 1e-6)
                if form.b_eq.size:
                    assert np.max(np.abs(form.A_eq.matvec(x) - form.b_eq)) <= 1e-6
            # presolve alone must never mislabel feasibility
            red, _ = presolve(form)
            if red.proven_infeasible:
                assert reference.status is SolveStatus.INFEASIBLE
            checked += 1
        assert checked >= 40

    def test_presolve_and_cuts_agree_on_random_milps(self, monkeypatch):
        from repro.optim import solve_model

        rng = np.random.default_rng(6061)
        rounds = branch_and_bound._MAX_CUT_ROUNDS
        checked = 0
        for _ in range(60):
            model = _random_model(rng, mip=True)
            form = model.to_standard_form()
            reference = scipy_backend.solve_mip(form)
            if reference.status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
                continue
            for mode, cut_rounds in (("on", rounds), ("off", rounds), ("on", 0)):
                monkeypatch.setattr(branch_and_bound, "_MAX_CUT_ROUNDS", cut_rounds)
                ours = solve_model(model, backend="branch-and-bound", presolve=mode)
                _assert_matches(
                    ours, reference, f"MILP #{checked} presolve={mode} cut rounds={cut_rounds}"
                )
            checked += 1
        assert checked >= 30


class TestSessionDifferential:
    def test_incremental_updates_match_fresh_lowering(self):
        """Random rhs/coefficient/objective updates through a SolverSession
        must match re-lowering the mutated model from scratch on HiGHS."""
        rng = np.random.default_rng(91)
        for index in range(40):
            model = _random_model(rng, mip=False)
            session = SolverSession(model, backend="simplex")
            for _ in range(int(rng.integers(1, 4))):
                constr = model.constraints[int(rng.integers(0, len(model.constraints)))]
                var = model.variables[int(rng.integers(0, len(model.variables)))]
                new_rhs = float(rng.uniform(-5, 5))
                new_coeff = float(rng.uniform(-2, 2))
                # Mutate the model (ground truth) and the session identically.
                model.update_constraint_rhs(constr.name, new_rhs)
                constr.expr.terms[var] = new_coeff
                session.update_constraint_rhs(constr.name, new_rhs)
                session.update_constraint_coeff(constr.name, var, new_coeff)
            reference = scipy_backend.solve_lp(model.to_standard_form())
            if reference.status not in (
                SolveStatus.OPTIMAL,
                SolveStatus.INFEASIBLE,
                SolveStatus.UNBOUNDED,
            ):
                continue
            ours = session.solve()
            _assert_matches(ours, reference, f"session #{index}")

    def test_warm_started_resolve_chain_stays_exact(self):
        """A chain of rhs perturbations re-solved warm must track HiGHS."""
        rng = np.random.default_rng(17)
        model = Model("chain", sense="min")
        xs = [model.add_var(f"x{i}", ub=10.0) for i in range(4)]
        model.add_constr(lin_sum(xs) >= 6.0, name="cover")
        model.add_constr(xs[0] + 2 * xs[1] >= 3.0, name="pair")
        model.set_objective(lin_sum(float(c) * x for c, x in zip([2, 1, 3, 1.5], xs)))
        session = SolverSession(model, backend="simplex")
        for step in range(25):
            cover = float(rng.uniform(2, 12))
            pair = float(rng.uniform(0, 6))
            session.update_constraint_rhs("cover", cover)
            session.update_constraint_rhs("pair", pair)
            model.update_constraint_rhs("cover", cover)
            model.update_constraint_rhs("pair", pair)
            ours = session.solve()
            reference = scipy_backend.solve_lp(model.to_standard_form())
            _assert_matches(ours, reference, f"chain step {step}")
        assert session.solves == 25
