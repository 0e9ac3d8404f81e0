"""In-house solver benchmarks: the sparse revised simplex as the MILP engine.

The figure benchmarks run on the default (HiGHS) backend, so they say
nothing about the in-house solver.  These benchmarks mask SciPy
availability, forcing branch and bound onto the sparse revised simplex with
warm-started factorized bases, and rely on the conftest harness to persist
pivot / dual-pivot / (re)factorization / canonicalization counts and peak
stored nonzeros alongside the wall-times in ``BENCH_optim.json`` -- the
numbers that make a sparse-vs-dense win attributable rather than anecdotal.

Workloads mirror the PR 2 comparison table in ``ROADMAP.md`` (pop10,
seed 0, setup cost 5x exploitation).  The full 132-traffic exact MILP takes
over a minute; set ``REPRO_BENCH_FULL=1`` to include it.  The Figure 8 gate
hands the raw pop15 LP2 root relaxation straight to the simplex.
"""

from __future__ import annotations

import math
import os
import time
from unittest import mock

import pytest

from repro.experiments import ExperimentConfig, figure7_passive_pop10
from repro.optim import SolveStatus
from repro.optim import instrumentation as instr
from repro.optim import scipy_backend
from repro.optim.simplex import solve_standard_form
from repro.passive.costs import uniform_costs
from repro.passive.ilp import PPMSession, solve_ilp
from repro.passive.problem import PPMProblem
from repro.passive.sampling import SamplingProblem, _build_ppme_model, solve_ppme
from repro.topology import paper_pop
from repro.traffic import generate_traffic_matrix


def _ppme_problem(n_traffics=None):
    pop = paper_pop("pop10", seed=0)
    matrix = generate_traffic_matrix(pop, seed=0)
    if n_traffics is not None:
        matrix = type(matrix)(list(matrix)[:n_traffics])
    costs = uniform_costs(matrix.links, setup=5.0, exploitation=1.0)
    return SamplingProblem(
        traffic=matrix, coverage=0.9, traffic_min_ratio=0.05, costs=costs
    )


def _solve_inhouse_ppme(problem):
    with mock.patch.object(scipy_backend, "is_available", lambda: False):
        return solve_ppme(problem, backend="branch-and-bound")


def test_bench_inhouse_ppme_milp_80(benchmark):
    problem = _ppme_problem(80)
    placement = benchmark.pedantic(
        _solve_inhouse_ppme, args=(problem,), rounds=1, iterations=1
    )
    print(
        f"\nin-house PPME MILP (80 traffics): devices={placement.num_devices} "
        f"cost={placement.total_cost:.3f}"
    )
    assert placement.num_devices > 0
    assert placement.coverage >= 0.9 - 1e-6


#: Node budget for the full 132-traffic PPME MILP on the in-house stack.
#: The pre-engine baseline (most-fractional branching, no presolve, no
#: cuts) explored 35,971 nodes and HiGHS takes 964; presolve + implied
#: cardinality cuts + reliability branching bring the in-house tree to ~331.
#: The budget is the 10x-under-baseline acceptance bar with ~10x headroom
#: over the measured count, so noise does not flake the gate but losing any
#: one of the three reductions (each worth well over 10x alone) fails it.
_FULL_MILP_NODE_BUDGET = 3_600


def test_gate_inhouse_ppme_node_count(benchmark):
    """Regression gate on branch-and-bound tree size, not wall-time.

    Wall-times move with the machine; the node count is deterministic for a
    fixed seed and directly measures what the presolve/cut/branching engine
    is supposed to deliver.  The conftest harness persists the counter
    snapshot (``bb_nodes``, ``cuts_added``, ``strong_branch_probes``, ...)
    into ``BENCH_optim.json`` alongside the wall-time.
    """
    problem = _ppme_problem()
    placement = benchmark.pedantic(
        _solve_inhouse_ppme, args=(problem,), rounds=1, iterations=1
    )
    nodes = instr.get("bb_nodes")
    print(
        f"\nin-house PPME MILP (full pop10): nodes={nodes} "
        f"budget={_FULL_MILP_NODE_BUDGET} devices={placement.num_devices} "
        f"cost={placement.total_cost:.3f}"
    )
    assert placement.num_devices > 0
    assert placement.coverage >= 0.9 - 1e-6
    assert nodes <= _FULL_MILP_NODE_BUDGET, (
        f"branch-and-bound explored {nodes} nodes on the 132-traffic PPME "
        f"MILP, over the {_FULL_MILP_NODE_BUDGET}-node regression budget; "
        "check the presolve reductions, implied cardinality cuts and "
        "pseudocost branching before raising the budget"
    )


#: Wall-clock budget for the resilience gate below.  The full 132-traffic
#: PPME MILP takes several times this on the in-house stack, so the solve
#: reliably runs out of budget -- which is the point: the gate checks that
#: the shared Deadline actually stops every layer (presolve, root cuts,
#: node LPs, the node loop) close to the budget instead of overshooting.
_TIME_LIMIT_GATE_SECONDS = 2.0


def test_gate_inhouse_ppme_time_limit(benchmark):
    """Deadline-honesty gate on the full 132-traffic PPME MILP.

    With ``time_limit`` set well under the full solve time, the in-house
    branch and bound must (a) return within 2x the budget -- the deadline is
    checked between pivots and nodes, so some overshoot is expected but not
    multiples -- and (b) report the honest ``TIME_LIMIT`` status with the
    best incumbent and a finite gap, never ``NODE_LIMIT`` and never a bare
    failure.
    """
    problem = _ppme_problem()

    def run():
        model, _x, _r, _delta = _build_ppme_model(problem)
        with mock.patch.object(scipy_backend, "is_available", lambda: False):
            start = time.perf_counter()
            solution = model.solve(
                backend="branch-and-bound", time_limit=_TIME_LIMIT_GATE_SECONDS
            )
            return solution, time.perf_counter() - start

    solution, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nin-house PPME MILP time-limit gate: status={solution.status.name} "
        f"elapsed={elapsed:.2f}s budget={_TIME_LIMIT_GATE_SECONDS:.1f}s "
        f"gap={solution.gap}"
    )
    assert solution.status is SolveStatus.TIME_LIMIT
    assert elapsed <= 2.0 * _TIME_LIMIT_GATE_SECONDS, (
        f"solve with a {_TIME_LIMIT_GATE_SECONDS:.1f}s time_limit took "
        f"{elapsed:.2f}s; the deadline is not being honored by some layer"
    )
    assert solution.values, "time-limited solve should return the incumbent"
    assert solution.gap is not None and math.isfinite(solution.gap)


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_FULL"),
    reason="full 132-traffic exact MILP takes minutes; set REPRO_BENCH_FULL=1",
)
def test_bench_inhouse_ppme_milp_full(benchmark):
    problem = _ppme_problem()
    placement = benchmark.pedantic(
        _solve_inhouse_ppme, args=(problem,), rounds=1, iterations=1
    )
    print(
        f"\nin-house PPME MILP (full pop10): devices={placement.num_devices} "
        f"cost={placement.total_cost:.3f}"
    )
    assert placement.coverage >= 0.9 - 1e-6


def test_bench_inhouse_figure7(benchmark):
    def run():
        with mock.patch.object(scipy_backend, "is_available", lambda: False):
            return figure7_passive_pop10(config=ExperimentConfig(seeds=(0,)))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nin-house figure-7 sweep: {len(rows)} coverage targets")
    for row in rows:
        assert row["ilp_devices"] <= row["greedy_devices"] + 1e-9


#: Ceiling on dual pivots per LP solve over the three coverages the
#: ``pop10-sweep`` workload of ``perfbench/`` pins.  Picking each leaving
#: row by its violation alone ran 20.2 (8,336 dual pivots over 412 solves);
#: devex row weights carried from parent to child run 12.1 (5,036 / 416).
_SWEEP_DUAL_PIVOTS_PER_SOLVE = 15.0


def test_gate_inhouse_sweep_dual_pivots_per_solve(benchmark):
    """Counter gate on the warm node re-solves of the pinned Figure 7 sweep.

    Branch and bound re-solves every child from its parent's basis with
    dual simplex pivots, so dual pivots per LP solve measure how well the
    dual loop picks its leaving rows.  The count is deterministic for the
    pinned instance (pop10, seed 0, k = 0.75, 0.90 and 1.00).
    """
    matrix = generate_traffic_matrix(paper_pop("pop10", seed=0), seed=0)

    def run():
        instr.reset()
        with mock.patch.object(scipy_backend, "is_available", lambda: False):
            return [
                solve_ilp(PPMProblem(matrix, coverage=k), backend="branch-and-bound")
                for k in (0.75, 0.90, 1.00)
            ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    dual_pivots, lp_solves = instr.get("dual_pivots"), instr.get("lp_solves")
    ratio = dual_pivots / lp_solves
    print(
        f"\nin-house pop10 sweep: {dual_pivots} dual pivots over {lp_solves} LP "
        f"solves ({ratio:.1f} per solve, ceiling {_SWEEP_DUAL_PIVOTS_PER_SOLVE:.0f}); "
        f"devices {[r.num_devices for r in results]}"
    )
    assert ratio <= _SWEEP_DUAL_PIVOTS_PER_SOLVE, (
        f"{ratio:.1f} dual pivots per node LP on the pinned pop10 sweep, over "
        f"the {_SWEEP_DUAL_PIVOTS_PER_SOLVE:.0f} ceiling; check the dual loop's "
        "leaving-row rule and the row weights carried in the basis token"
    )


#: HiGHS objectives of the raw LP2 root relaxation of Figure 8's first
#: instance (pop15, seed 0), by coverage.
_FIGURE8_ROOT_OBJECTIVES = {0.80: 9.316783751206, 0.95: 14.569174675443}

#: Iteration budget for each Figure 8 root LP.  It counts dual bound flips
#: as well as pivots: the dual loop runs 3,747 and 3,591 iterations for
#: 1,571 and 1,499 pivots here.  The primal two-phase start used up this
#: budget without converging.
_FIGURE8_ROOT_MAX_ITER = 6_000

#: Ceiling on primal + dual pivots per Figure 8 root LP (1,571 and 1,499).
_FIGURE8_ROOT_MAX_PIVOTS = 2_500


@pytest.mark.parametrize("coverage", sorted(_FIGURE8_ROOT_OBJECTIVES))
def test_gate_inhouse_figure8_root_lp(benchmark, coverage):
    """The paper's own Figure 8 root LP solves in-house, to HiGHS's optimum.

    The raw LP2 form of pop15 (1,963 columns, no presolve) has non-negative
    costs and no equality rows, so the simplex starts from the all-slack
    basis and repairs the coverage row with dual pivots.
    """
    matrix = generate_traffic_matrix(paper_pop("pop15", seed=0), seed=0)
    session = PPMSession(PPMProblem(matrix, coverage=coverage), backend="simplex")
    form = session.model.to_standard_form()
    expected = _FIGURE8_ROOT_OBJECTIVES[coverage]
    if scipy_backend.is_available():
        expected = scipy_backend.solve_lp(form).objective

    instr.reset()
    solution = benchmark.pedantic(
        solve_standard_form,
        args=(form,),
        kwargs={"max_iter": _FIGURE8_ROOT_MAX_ITER},
        rounds=1,
        iterations=1,
    )
    pivots = instr.get("pivots") + instr.get("dual_pivots")
    print(
        f"\nin-house Figure 8 root LP (pop15, k={coverage}): "
        f"{solution.status.name} obj={solution.objective} against HiGHS "
        f"{expected}, {pivots} pivots"
    )
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(expected, rel=1e-6)
    assert pivots <= _FIGURE8_ROOT_MAX_PIVOTS
