"""Internet-scale LP2 benchmark: column generation vs the monolithic lowering.

The PR 9 numeric core (Forrest-Tomlin + devex) solves Rocketfuel-size bases,
but a monolithic lowering still *materializes* every column of LP2 up front
-- at ISP scale (ROADMAP open item 2 targets 10^5+ traffic pairs) the
canonical matrix and its basis factors dominate memory and wall-time even
though the optimum touches a fraction of the columns.  This benchmark builds
an LP2 instance with >= 10^4 traffic pairs carrying the paper's skewed
Internet demand (a few hundred "preferred pairs of high traffic" between a
small set of hot endpoints, a long tail of mice flows) with the candidate
monitors on the POP access links, and solves its root relaxation two ways:

* **monolithic**: ``colgen._COLGEN_MIN_COLS`` patched out of reach -- the
  full lowering through the FT + devex simplex, gated only on not
  regressing (``OPTIMAL`` within its budget, or an honest ``TIME_LIMIT``);
* **colgen**: what the in-house backends pick at this width -- the
  restricted master seeded by the LP2 heavy-hitter hints, pricing the
  10^4-column universe in CSC blocks.

Gates: colgen must reach the HiGHS-cross-checked objective, keep its peak
stored nonzeros (canonical master + LU factors + eta file, the
``peak_nnz`` counter) at <= 25% of the monolithic arm's, and finish >= 2x
faster unless the monolithic arm did-not-finish.  Both arms run the primal
two-phase cold start these gates were calibrated on: the default all-slack
dual start (``simplex._SLACK_START_MIN_COLS``) shrinks the monolithic arm's
factors too, so the arms pin it off; the default solver takes that primal
path only after a fallback.  A third solve, colgen on the default
path, is gated on the HiGHS objective, on dual pivots actually taken and on
a peak-nonzero ceiling.  Every solve's wall-time and counter snapshot
(``colgen_rounds``, ``columns_priced``, ``columns_added``,
``master_resolves``, ``lagrangian_bound_gap``, ...) is persisted to
``BENCH_optim.json`` by the conftest harness.
"""

from __future__ import annotations

import math
import random
import time
from unittest import mock

import pytest

from repro.optim import SolveStatus
from repro.optim import instrumentation as instr
from repro.optim import colgen, scipy_backend, simplex
from repro.passive.ilp import PPMSession
from repro.passive.problem import PPMProblem
from repro.topology import synthetic_rocketfuel
from repro.traffic.generation import DemandConfig, generate_demands
from repro.traffic.routing import RoutingConfig, route_demands

#: Fraction of endpoint pairs carrying demand: 0.32 of the ~32k ordered
#: pairs on the default synthetic Rocketfuel topology => 10,310 traffics.
_PAIR_FRACTION = 0.32

#: The paper's skew, concentrated: preferred pairs are drawn between a small
#: hot-endpoint set so the heavy hitters share access links (elephants), and
#: the optimum monitors those links instead of coupling the whole backbone.
_HOT_ENDPOINTS = 40
_PREFERRED_PAIRS = 400
_PREFERRED_VOLUME = (1000.0, 2000.0)

#: Monolithic-arm budget.  The arm is gated on honesty, not speed: OPTIMAL
#: within the budget or a clean TIME_LIMIT both pass.
_MONO_TIME_LIMIT = 120.0

#: Gates from the PR acceptance bar.
_NNZ_CEILING = 0.25
_SPEEDUP_FLOOR = 2.0

#: Peak stored nonzeros of colgen on the default path (the all-slack dual
#: start): 56,885, against 65,540 on the primal two-phase start.
_DEFAULT_PATH_NNZ_CEILING = 60_000

#: Root-relaxation objective of the (fully seeded, deterministic) instance,
#: cross-checked in-test against HiGHS when SciPy is available.
_EXPECTED_OBJECTIVE = 18.785300362303


@pytest.fixture(scope="module")
def internet_scale_problem():
    """A >= 10^4-traffic LP2 instance with concentrated elephant demand."""
    pop = synthetic_rocketfuel(seed=0)
    demands = generate_demands(
        pop, config=DemandConfig(pair_fraction=_PAIR_FRACTION), seed=0
    )
    rng = random.Random(1)
    endpoints = sorted({u for u, _ in demands} | {v for _, v in demands}, key=str)
    hot = set(rng.sample(endpoints, _HOT_ENDPOINTS))
    hot_pairs = [p for p in demands if p[0] in hot and p[1] in hot]
    low, high = _PREFERRED_VOLUME
    for pair in rng.sample(hot_pairs, min(_PREFERRED_PAIRS, len(hot_pairs))):
        demands[pair] = rng.uniform(low, high)
    matrix = route_demands(pop, demands, config=RoutingConfig(tie_break_seed=0))
    virtuals = set(pop.virtual_nodes)
    access = [l for l in matrix.links if l[0] in virtuals or l[1] in virtuals]
    return PPMProblem(matrix, coverage=0.9, candidate_links=access)


def test_gate_internet_scale_colgen(
    benchmark, _bench_records, internet_scale_problem, monkeypatch
):
    """Colgen gates: HiGHS-matching objective, <= 25% peak nnz, >= 2x wall.

    Both arms run back to back on the identical instance, on the primal
    two-phase cold start; the monolithic arm's wall-time and counters are
    persisted so the trajectory attributes the win (restricted-master size,
    pricing rounds, Lagrangian gap) rather than just asserting it.  Then
    colgen solves once more on the default path.
    """
    problem = internet_scale_problem
    n_traffics = len(list(problem.traffic))
    assert n_traffics >= 10_000, f"instance must be Internet-scale, got {n_traffics}"

    monkeypatch.setattr(simplex, "_SLACK_START_MIN_COLS", math.inf)
    instr.reset()
    start = time.perf_counter()
    with mock.patch.object(colgen, "_COLGEN_MIN_COLS", math.inf):
        mono_session = PPMSession(problem, backend="simplex", time_limit=_MONO_TIME_LIMIT)
        mono_solution = mono_session._session.solve()
    mono_time = time.perf_counter() - start
    mono_counters = instr.snapshot()
    _bench_records["wall"]["internet_lp2[monolithic]"] = round(mono_time, 3)
    _bench_records["counters"]["internet_lp2[monolithic]"] = mono_counters

    # Not regressing: the monolithic arm either solves this (with the PR 9
    # core it does, slowly) or reports an honest deadline -- never an error.
    mono_dnf = mono_solution.status is SolveStatus.TIME_LIMIT
    assert mono_dnf or mono_solution.status is SolveStatus.OPTIMAL
    if mono_solution.status is SolveStatus.OPTIMAL:
        assert mono_solution.objective == pytest.approx(_EXPECTED_OBJECTIVE, abs=1e-5)

    instr.reset()
    colgen_session = PPMSession(problem, backend="simplex")
    assert colgen.decomposes(colgen_session._session.form)
    start = time.perf_counter()
    solution = benchmark.pedantic(colgen_session._session.solve, rounds=1, iterations=1)
    colgen_time = time.perf_counter() - start
    colgen_counters = instr.snapshot()
    _bench_records["wall"]["internet_lp2[colgen]"] = round(colgen_time, 3)
    _bench_records["counters"]["internet_lp2[colgen]"] = colgen_counters

    print(
        f"\ninternet-scale LP2 ({colgen_session._session.form.num_vars} vars, "
        f"{n_traffics} traffics): monolithic {mono_solution.status.name} in "
        f"{mono_time:.2f}s (peak_nnz {mono_counters['peak_nnz']}) vs colgen "
        f"{solution.status.name} in {colgen_time:.2f}s "
        f"(peak_nnz {colgen_counters['peak_nnz']}, "
        f"{colgen_counters['colgen_rounds']} rounds, "
        f"{colgen_counters['columns_added']} of {colgen_counters['columns_priced']} "
        f"priced columns admitted)"
    )

    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(_EXPECTED_OBJECTIVE, abs=1e-5)
    expected = _EXPECTED_OBJECTIVE
    if scipy_backend.is_available():
        from repro.optim.backend import _solve_form

        reference = _solve_form(colgen_session._session.form, False, "scipy", {})
        assert reference.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(reference.objective, abs=1e-5)
        expected = reference.objective

    # The win is attributable: the master really was restricted and priced.
    assert colgen_counters["colgen_rounds"] >= 1
    assert colgen_counters["master_resolves"] >= 1
    assert colgen_counters["columns_priced"] > 0
    assert 0 < colgen_counters["columns_added"] < colgen_session._session.form.num_vars

    nnz_ratio = colgen_counters["peak_nnz"] / mono_counters["peak_nnz"]
    assert nnz_ratio <= _NNZ_CEILING, (
        f"colgen peak nnz {colgen_counters['peak_nnz']} is {nnz_ratio:.1%} of the "
        f"monolithic {mono_counters['peak_nnz']}; the restricted master must stay "
        f"<= {_NNZ_CEILING:.0%}"
    )
    assert mono_dnf or mono_time >= _SPEEDUP_FLOOR * colgen_time, (
        f"colgen took {colgen_time:.2f}s against the monolithic arm's "
        f"{mono_time:.2f}s; column generation must hold a >= "
        f"{_SPEEDUP_FLOOR:g}x advantage at Internet scale"
    )

    # The default path: the restricted master cold-starts from the all-slack
    # basis with dual pivots.
    monkeypatch.undo()
    instr.reset()
    default_session = PPMSession(problem, backend="simplex")
    start = time.perf_counter()
    default_solution = default_session._session.solve()
    default_time = time.perf_counter() - start
    default_counters = instr.snapshot()
    _bench_records["wall"]["internet_lp2[colgen+slack-start]"] = round(default_time, 3)
    _bench_records["counters"]["internet_lp2[colgen+slack-start]"] = default_counters
    print(
        f"colgen on the default path: {default_solution.status.name} in "
        f"{default_time:.2f}s (peak_nnz {default_counters['peak_nnz']}, "
        f"{default_counters['dual_pivots']} dual pivots)"
    )
    assert default_solution.status is SolveStatus.OPTIMAL
    assert default_solution.objective == pytest.approx(expected, abs=1e-5)
    assert default_counters["dual_pivots"] > 0
    assert default_counters["peak_nnz"] <= _DEFAULT_PATH_NNZ_CEILING
