"""Warm re-solve chains: each chain pays for one cold solve, the first.

A re-solve that holds a basis must not throw it away.  These tests count
calls to :func:`repro.optim.simplex._cold_solve_resilient` across chains of
re-solves that used to restart cold:

* a patched basis that is both primal and dual infeasible (the PPME*
  controller re-solves) is repaired under shifted costs, and the chain
  lowers its LP once: each batched volume patch keeps the sparsity pattern,
  and every placement equals the one-coefficient reference path's;
* an exhausted bound-flipping ratio test proves infeasibility instead of
  stalling into a cold solve, and needs no FTRAN for its flips: a dual
  iteration applies all of its flips with one FTRAN before its pivot;
* the branch-and-bound root cut rounds migrate each round's basis across the
  appended cut rows.

The dual loop's devex row weights ride in the basis token: every warm start
continues from a private copy of its parent's weights, and a basis migrated
across appended rows starts again from the unit reference.  On a large LP the
loop builds sparse pivot rows from the nonzero rows of rho; they change no
flip or pivot.

A large LP without equality rows starts from the all-slack basis through the
same warm path; a start that stalls or fails falls back to the primal cold
solve as the ``slack-fallback`` rung, not as a warm stall, and an LP with
equality rows keeps the primal start.  A warm start that hits numerical
trouble falls back to the cold solve as a warm stall.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.optim import FaultPlan, Model, SolveStatus, faultinject, lin_sum, scipy_backend
from repro.optim import instrumentation as instr
from repro.optim import simplex as simplex_mod
from repro.optim.branch_and_bound import solve_milp
from repro.optim.errors import InfeasibleError
from repro.optim.simplex import SimplexSolver, extend_warm_basis, solve_standard_form
from repro.passive.sampling import PPMESession, SamplingPlacement, SamplingProblem, solve_ppme


@pytest.fixture
def cold_solves(monkeypatch):
    """A one-element list counting cold solves while the test runs."""
    count = [0]
    cold = simplex_mod._cold_solve_resilient

    def counted(*args, **kwargs):
        count[0] += 1
        return cold(*args, **kwargs)

    monkeypatch.setattr(simplex_mod, "_cold_solve_resilient", counted)
    return count


@pytest.fixture
def dual_ftrans(monkeypatch):
    """FTRANs made inside the dual loop: one entry per ``_dual_iterations``
    call, plus the numerical trouble each call raised (None if none)."""
    calls = []
    inside = [False]
    ftran = simplex_mod._BasisFactor.ftran
    dual = simplex_mod._dual_iterations

    def counted(self, rhs):
        if inside[0]:
            calls[-1][0] += 1
        return ftran(self, rhs)

    def tracked(*args, **kwargs):
        calls.append([0, None])
        inside[0] = True
        try:
            return dual(*args, **kwargs)
        except simplex_mod._NumericalTrouble as exc:
            calls[-1][1] = type(exc)
            raise
        finally:
            inside[0] = False

    monkeypatch.setattr(simplex_mod._BasisFactor, "ftran", counted)
    monkeypatch.setattr(simplex_mod, "_dual_iterations", tracked)
    return calls


def _short_cover(n, rhs):
    """min sum (1 + 0.1 i) x_i over x in [0, 1]^n with sum x >= 1, solved
    cold, then the cover row raised to ``rhs``.  The cold solve ends on a
    degenerate vertex: x_0 at its upper bound, x_1 basic at 0.  The dual
    repair lowers x_1 to its upper bound with one ratio test over x_2, x_3,
    ... in that order."""
    m = Model("short-cover", sense="min")
    xs = [m.add_var(f"x{i}", lb=0.0, ub=1.0) for i in range(n)]
    m.add_constr(lin_sum(xs) >= 1.0, name="cover")
    m.set_objective(lin_sum((1.0 + 0.1 * i) * x for i, x in enumerate(xs)))
    form = m.to_standard_form()
    solver = SimplexSolver(form)
    first, basis = solver.solve()
    assert first.objective == pytest.approx(1.0)
    form.b_ub[0] = -rhs  # the cover row is lowered as -sum x <= -rhs
    return form, solver, basis


def test_exhausted_bound_flips_prove_infeasibility(cold_solves, dual_ftrans):
    # At rhs 7.5 the dual repair flips x_2 and x_3 to their upper bounds and
    # the cover row is still short by 3.5 -- no point of the box reaches it.
    # The flips are decided from the pivot row alone: no FTRAN.
    form, solver, basis = _short_cover(4, 7.5)
    assert cold_solves[0] == 1
    instr.reset()
    sol, _ = solver.solve(warm_basis=basis)
    assert sol.status is SolveStatus.INFEASIBLE
    assert instr.get("warm_repair_stalls") == 0
    assert instr.get("pivots") == 0  # no primal pivots: the proof is all dual
    assert instr.get("dual_bound_flips") == 2
    assert dual_ftrans == [[0, None]]
    assert cold_solves[0] == 1


def test_bound_flips_share_one_ftran_before_the_pivot(cold_solves, dual_ftrans):
    # At rhs 4.5 one iteration flips x_2 and x_3 to their upper bounds and
    # pivots x_4 in at 0.5: one FTRAN moves the basic values by both flips,
    # one FTRAN transforms the entering column.
    form, solver, basis = _short_cover(5, 4.5)
    instr.reset()
    warm, _ = solver.solve(warm_basis=basis)
    assert instr.get("dual_bound_flips") == 2
    assert instr.get("dual_pivots") == 1
    assert dual_ftrans == [[2, None]]
    assert cold_solves[0] == 1
    cold = solve_standard_form(form)
    assert warm.status is cold.status is SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert warm.objective == pytest.approx(1.0 + 1.1 + 1.2 + 1.3 + 0.5 * 1.4)


def test_non_finite_flip_update_falls_back_cold(cold_solves, dual_ftrans):
    # A NaN in the summed-flip FTRAN raises _NonFinitePivot before the pivot;
    # the warm start falls back to a cold solve (counted as a warm stall),
    # whose primal pivots reach the optimum.
    form, solver, basis = _short_cover(5, 4.5)
    instr.reset()
    with faultinject.inject(FaultPlan(corrupt_pivots=(1,))) as armed:
        sol, _ = solver.solve(warm_basis=basis)
    assert armed.fired[faultinject.PIVOT_FTRAN] == 1
    assert dual_ftrans == [[1, simplex_mod._NonFinitePivot]]
    assert instr.get("warm_repair_stalls") == 1
    assert cold_solves[0] == 2
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(solve_standard_form(form).objective, abs=1e-12)


def test_cost_shifted_repair_matches_cold_solves(cold_solves):
    # Patch costs and right-hand sides together so the old basis is usually
    # both primal and dual infeasible; every warm answer must equal a cold
    # solve of the same data, and no warm re-solve may fall back cold.
    rng = np.random.default_rng(5)
    for trial in range(30):
        m = Model(f"patched-{trial}", sense="min")
        xs = [m.add_var(f"x{i}", lb=0.0, ub=float(rng.uniform(1, 4))) for i in range(6)]
        for r in range(4):
            coeffs = rng.uniform(0.0, 2.0, size=6)
            m.add_constr(lin_sum(float(c) * x for c, x in zip(coeffs, xs)) >= 2.0, name=f"r{r}")
        m.set_objective(lin_sum(float(c) * x for c, x in zip(rng.uniform(0.5, 3, size=6), xs)))
        form = m.to_standard_form()
        solver = SimplexSolver(form)
        _, basis = solver.solve()
        for _ in range(4):
            form.b_ub[:] = -rng.uniform(0.5, 12.0, size=form.b_ub.size)
            form.c[:] = rng.uniform(0.5, 3.0, size=form.c.size)
            before = cold_solves[0]
            warm, token = solver.solve(warm_basis=basis)
            assert cold_solves[0] == before, f"trial {trial}"
            cold = solve_standard_form(form)
            assert warm.status is cold.status, f"trial {trial}"
            if cold.objective is not None:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-7), f"trial {trial}"
                basis = token


class OneCoefficientPPMESession(PPMESession):
    """The reference PPME* re-solve: one coefficient per patch call.

    It checks the structure against a signature of traffic ids and route
    node tuples built at each step, patches the coverage and traffic-min
    rows one coefficient at a time with right-hand sides from
    ``Traffic.volume``, and reads the placement through ``Model.value``.
    The batched session must return placements equal to its own.
    """

    @staticmethod
    def _signature(traffic):
        return tuple(
            (t.traffic_id, tuple(tuple(route.nodes) for route in t.routes)) for t in traffic
        )

    def reoptimize(self, traffic=None):
        if traffic is not None:
            problem = self._replace_problem(traffic)
            if self._signature(traffic) == self._signature(self.problem.traffic):
                self._patch_one_by_one(problem)
            else:
                self._build(problem)
        self._session.solve(raise_on_infeasible=True)
        return self._placement()

    def _patch_one_by_one(self, problem):
        session = self._session
        paths = problem.paths()
        for path_id, route in paths.items():
            session.update_constraint_coeff("coverage", self._delta[path_id], route.volume)
        session.update_constraint_rhs("coverage", problem.coverage * problem.total_volume)
        ratios = problem.min_ratios()
        for traffic in problem.traffic:
            h_t = ratios[traffic.traffic_id]
            if h_t <= 0:
                continue
            name = f"traffic-min[{traffic.traffic_id}]"
            for index in range(len(traffic.routes)):
                path_id = (traffic.traffic_id, index)
                session.update_constraint_coeff(name, self._delta[path_id], paths[path_id].volume)
            session.update_constraint_rhs(name, h_t * traffic.volume)
        self.problem = problem

    def _placement(self):
        problem, model = self.problem, self.model
        paths = problem.paths()
        costs = problem.costs
        monitored = [l for l in self._x if model.value(self._x[l]) > 0.5]
        rates = {l: model.value(v) for l, v in self._r.items() if model.value(v) > 1e-9}
        fractions = {p: model.value(v) for p, v in self._delta.items()}
        traffic_cov = {}
        for traffic in problem.traffic:
            monitored_volume = sum(
                paths[(traffic.traffic_id, i)].volume * fractions[(traffic.traffic_id, i)]
                for i in range(len(traffic.routes))
            )
            traffic_cov[traffic.traffic_id] = monitored_volume / traffic.volume
        total_monitored = sum(paths[p].volume * fractions[p] for p in paths)
        return SamplingPlacement(
            monitored_links=monitored,
            sampling_rates=rates,
            path_fractions=fractions,
            setup_cost=sum(costs.setup_cost(l) for l in monitored),
            exploitation_cost=sum(costs.exploitation_cost(l) * r for l, r in rates.items()),
            coverage=total_monitored / problem.total_volume,
            traffic_coverage=traffic_cov,
            method="ppme*",
        )


def _drift_chain(session_class, problem, installed, steps, backend="simplex"):
    """Each step's (objective, placement), or None when PPME* is infeasible."""
    session = session_class(problem, installed, backend=backend)
    out = []
    for traffic in steps:
        try:
            placement = session.reoptimize(traffic)
        except InfeasibleError:
            out.append(None)
        else:
            out.append((session.model.solution.objective, placement))
    return out


@pytest.mark.skipif(
    not scipy_backend.is_available(), reason="HiGHS deploys the devices and answers the chain"
)
def test_ppme_star_drift_chain_solves_cold_once(cold_solves):
    # Section 5.4: devices frozen at the PPME optimum, sampling rates
    # re-optimised at each of 20 one-step drifts of the traffic (3 of them
    # infeasible).  Only the session's first solve may be cold, and the only
    # lowering is the first: each batched volume patch keeps the pattern, so
    # the canonical LP is refreshed in place.  Every placement equals the
    # one-coefficient reference path's.
    from repro.passive.dynamic import TrafficDriftModel
    from repro.topology import paper_pop
    from repro.traffic import generate_traffic_matrix

    base = generate_traffic_matrix(paper_pop("pop10", seed=0), seed=0)
    problem = SamplingProblem(traffic=base, coverage=0.9)
    installed = solve_ppme(problem, backend="scipy").monitored_links
    drift = TrafficDriftModel(volatility=0.15, burst_probability=0.05)
    rng = random.Random(0)
    steps = [drift.evolve(base, rng) for _ in range(20)]

    instr.reset()
    chain = _drift_chain(PPMESession, problem, installed, steps)
    assert cold_solves[0] == 1
    assert instr.get("canonicalizations") == 1
    assert chain == _drift_chain(OneCoefficientPPMESession, problem, installed, steps)
    inhouse = [None if step is None else step[0] for step in chain]
    highs = [
        None if step is None else step[0]
        for step in _drift_chain(PPMESession, problem, installed, steps, backend="scipy")
    ]
    assert sum(a is None for a in highs) == 3
    for step, (got, ref) in enumerate(zip(inhouse, highs)):
        if ref is None:
            assert got is None, f"step {step}"
        else:
            assert got == pytest.approx(ref, rel=1e-6), f"step {step}"


def test_batched_drift_patches_match_the_one_coefficient_path(cold_solves):
    # Multi-routed traffics (up to four routes, so each traffic's volume is a
    # sum of several) under per-traffic minimum ratios: every step patches
    # the coverage row and each traffic-min[t] row in one call, and its
    # placement equals the one-coefficient path's, bit for bit.
    from repro.passive.dynamic import TrafficDriftModel
    from repro.traffic.demands import Route, Traffic, TrafficMatrix

    rng = random.Random(7)
    traffics = []
    for source in "abc":
        for sink in "xyz":
            hubs = rng.sample(range(4), rng.randint(1, 4))
            traffics.append(
                Traffic(
                    (source, sink),
                    [Route((source, f"m{hub}", sink), rng.uniform(1.0, 9.0)) for hub in hubs],
                )
            )
    base = TrafficMatrix(traffics)
    problem = SamplingProblem(traffic=base, coverage=0.8, traffic_min_ratio=0.3)
    drift = TrafficDriftModel(volatility=0.3, burst_probability=0.1)
    steps = [drift.evolve(base, rng) for _ in range(12)]

    instr.reset()
    chain = _drift_chain(PPMESession, problem, base.links, steps)
    assert cold_solves[0] == 1
    assert instr.get("canonicalizations") == 1
    assert sum(step is not None for step in chain) >= 10
    assert chain == _drift_chain(OneCoefficientPPMESession, problem, base.links, steps)


def test_root_cut_rounds_solve_cold_once(cold_solves):
    # The 12-binary cover MILP of the one-canonicalization contract, this
    # time with the root cut loop on: every round after the first, and the
    # root node, start from the previous round's migrated basis.
    rng = np.random.default_rng(3)
    model = Model("cover", sense="min")
    xs = [model.add_var(f"z{i}", vartype="binary") for i in range(12)]
    for _ in range(8):
        coeffs = rng.uniform(0.1, 1.0, size=12)
        model.add_constr(lin_sum(float(c) * x for c, x in zip(coeffs, xs)) >= 2.0)
    model.set_objective(lin_sum(float(w) * x for w, x in zip(rng.uniform(1, 3, size=12), xs)))
    instr.reset()
    solution = solve_milp(model.to_standard_form())
    assert solution.is_optimal
    assert solution.objective == pytest.approx(6.884114, abs=1e-6)
    assert instr.get("cuts_added") > 0
    assert cold_solves[0] == 1


def _sparse_cover_lp(seed, n=500, m=200):
    """min c x over [0, 1]^n under m ``>= 1`` rows, each column in three of
    them: 700 canonical columns, so the slack start's dual loop may build
    its pivot rows from rho's nonzero rows."""
    rng = np.random.default_rng(seed)
    model = Model(f"sparse-cover-{seed}", sense="min")
    xs = [model.add_var(f"x{j}", lb=0.0, ub=1.0) for j in range(n)]
    rows = [[] for _ in range(m)]
    for j, x in enumerate(xs):
        for r in {j % m, *rng.choice(m, size=2, replace=False)}:
            rows[r].append(float(rng.uniform(0.5, 1.5)) * x)
    for r, terms in enumerate(rows):
        model.add_constr(lin_sum(terms) >= 1.0, name=f"r{r}")
    model.set_objective(lin_sum(float(c) * x for c, x in zip(rng.uniform(1, 2, size=n), xs)))
    return model.to_standard_form()


@pytest.mark.parametrize("seed", range(2))
def test_sparse_pivot_rows_change_no_decision(seed, monkeypatch):
    # The row-restricted pivot row is bit-identical to the full product, so
    # the dual loop must take exactly the same flips and pivots either way.
    form = _sparse_cover_lp(seed)
    runs = []
    for full_rows in (False, True):
        if full_rows:
            monkeypatch.setattr(simplex_mod.SparseMatrix, "rmatvec_rows", lambda self, y, budget: None)
        instr.reset()
        solution = solve_standard_form(form)
        counts = {k: instr.get(k) for k in ("dual_pivots", "dual_bound_flips", "pivots", "ft_updates")}
        runs.append((solution.status, solution.objective, solution.values, counts, instr.get("sparse_pivot_rows")))
    (status, objective, values, counts, sparse_rows), full = runs
    assert status is SolveStatus.OPTIMAL
    assert sparse_rows > 0 and full[4] == 0
    assert counts["dual_pivots"] > 0
    assert (status, objective, values, counts) == full[:4]


def _branching_lp(seed):
    """A fractional covering LP: 10 variables in [0, 1], 6 ``>= 1.5`` rows."""
    rng = np.random.default_rng(seed)
    m = Model(f"branching-{seed}", sense="min")
    xs = [m.add_var(f"x{i}", lb=0.0, ub=1.0) for i in range(10)]
    for _ in range(6):
        coeffs = rng.uniform(0.0, 1.0, size=10)
        m.add_constr(lin_sum(float(c) * x for c, x in zip(coeffs, xs)) >= 1.5)
    m.set_objective(lin_sum(float(c) * x for c, x in zip(rng.uniform(1, 2, size=10), xs)))
    return m.to_standard_form()


def _most_fractional(solution, form):
    x = np.array([solution.values[name] for name in form.names])
    return int(np.argmax(np.abs(x - np.round(x))))


@pytest.mark.parametrize("seed", range(6))
def test_children_continue_a_private_copy_of_the_parent_row_weights(seed):
    # A parent node reached by dual pivots, so its token holds non-unit row
    # weights, and its two children re-solved from that one token in both
    # orders: each child must see the parent's weights, not its sibling's.
    form = _branching_lp(seed)
    solver = SimplexSolver(form)
    root, token = solver.solve()
    lb, ub = form.lb.copy(), form.ub.copy()
    ub[_most_fractional(root, form)] = 0.0
    parent, token = solver.solve(lb=lb, ub=ub, warm_basis=token)
    assert not np.all(token.row_weights == 1.0)
    saved = token.row_weights.copy()
    j = _most_fractional(parent, form)

    def child(fix):
        lo, hi = lb.copy(), ub.copy()
        lo[j] = hi[j] = fix
        instr.reset()
        sol, _ = solver.solve(lb=lo, ub=hi, warm_basis=token)
        assert np.array_equal(token.row_weights, saved)
        return sol.status, sol.objective, sol.values, instr.get("dual_pivots")

    down_first = [child(0.0), child(1.0)]
    up_first = [child(1.0), child(0.0)]
    assert down_first == up_first[::-1]
    assert down_first[0][3] + down_first[1][3] > 0


def test_cut_round_migration_drops_the_row_weights():
    # Appending a <= row (a cut) re-lowers the LP; the migrated token starts
    # the next round's dual pivots from the unit reference.
    model = Model("cut-round", sense="min")
    xs = [model.add_var(f"x{i}", lb=0.0, ub=1.0) for i in range(4)]
    model.add_constr(lin_sum(xs) >= 1.5)
    model.add_constr(xs[0] + 2 * xs[1] >= 1.0)
    model.set_objective(lin_sum((1.0 + 0.5 * i) * x for i, x in enumerate(xs)))
    solver = SimplexSolver(model.to_standard_form())
    _, token = solver.solve()
    assert token.row_weights is not None
    old_lp = solver._lp
    model.add_constr(xs[0] + xs[1] <= 1.0, name="cut")
    grown = SimplexSolver(model.to_standard_form())
    new_lp = grown._ensure_canonical(grown.form.lb, grown.form.ub)
    migrated = extend_warm_basis(token, old_lp, new_lp)
    assert migrated is not None
    assert migrated.row_weights is None
    assert migrated.factor is None
    sol, _ = grown.solve(warm_basis=migrated)
    assert sol.objective == pytest.approx(solve_standard_form(grown.form).objective)


def _wide_cover_lp(equality_row):
    """min c x over [0, 1]^n under four ``>= 20`` cover rows, where n is the
    all-slack start's size threshold (the rows' slacks make it 604 columns)."""
    rng = np.random.default_rng(0)
    m = Model("wide-cover", sense="min")
    xs = [m.add_var(f"x{i}", lb=0.0, ub=1.0) for i in range(simplex_mod._SLACK_START_MIN_COLS)]
    for r in range(4):
        coeffs = rng.uniform(0.0, 1.0, size=len(xs))
        m.add_constr(lin_sum(float(c) * x for c, x in zip(coeffs, xs)) >= 20.0, name=f"r{r}")
    if equality_row:
        m.add_constr(xs[0] + xs[1] == 1.0, name="pair")
    m.set_objective(lin_sum(float(c) * x for c, x in zip(rng.uniform(1, 2, size=len(xs)), xs)))
    return m.to_standard_form()


def test_stalled_slack_start_falls_back_to_the_primal_ladder(cold_solves):
    form = _wide_cover_lp(equality_row=False)
    instr.reset()
    clean = solve_standard_form(form)
    assert instr.get("dual_pivots") > 0
    assert instr.get("pivots") == 0
    assert cold_solves[0] == 0
    instr.reset()
    with faultinject.inject(FaultPlan(stall_warm_repairs=(1,))) as armed:
        faulted = solve_standard_form(form)
    assert armed.fired.get(faultinject.WARM_REPAIR) == 1
    assert instr.get("recovery_slack_fallback") == 1
    assert instr.get("warm_repair_stalls") == 0
    assert cold_solves[0] == 1
    assert faulted.status is SolveStatus.OPTIMAL
    assert faulted.objective == pytest.approx(clean.objective, abs=1e-9)


def test_failed_slack_start_solves_cold(cold_solves, monkeypatch):
    # Numerical trouble in the all-slack start goes straight to the primal
    # cold solve, counted as the slack-fallback rung and not as a warm stall.
    form = _wide_cover_lp(equality_row=False)
    clean = solve_standard_form(form)

    def trouble(*args, **kwargs):
        raise simplex_mod._NumericalTrouble("injected")

    monkeypatch.setattr(simplex_mod, "_dual_iterations", trouble)
    instr.reset()
    faulted = solve_standard_form(form)
    assert instr.get("recovery_slack_fallback") == 1
    assert instr.get("warm_repair_stalls") == 0
    assert cold_solves[0] == 1
    assert faulted.status is SolveStatus.OPTIMAL
    assert faulted.objective == pytest.approx(clean.objective, abs=1e-9)


def test_equality_rows_keep_the_primal_cold_start(cold_solves):
    instr.reset()
    solution = solve_standard_form(_wide_cover_lp(equality_row=True))
    assert solution.status is SolveStatus.OPTIMAL
    assert instr.get("dual_pivots") == 0
    assert cold_solves[0] == 1
