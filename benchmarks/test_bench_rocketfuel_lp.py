"""Rocketfuel-scale LP benchmark: Forrest-Tomlin + devex vs dense-eta Dantzig.

The paper-sized POP benchmarks (132 traffics, ~180 canonical columns) never
stress the numeric core: their bases are small enough that dense eta files
and Dantzig pricing are adequate.  This benchmark builds the PPM compact
formulation (Linear program 2) on a Rocketfuel-like synthetic ISP topology
-- ~1,300 canonical columns, ~970 inequality rows -- and solves its root LP
relaxation with the in-house simplex under two configurations:

* **baseline**: dense product-form eta updates (the ``DenseEtaFactor`` test
  oracle of ``tests/test_optim_sparse.py``, patched in for ``_BasisFactor``)
  and Dantzig pricing (``simplex._DEVEX_MIN_COLS`` patched out of reach) --
  the numeric core as it stood before the Forrest-Tomlin work, with a
  bounded iteration budget;
* **new**: sparse Forrest-Tomlin spike updates and devex/partial pricing
  (what the primal loop picks at this size).

Both arms run the primal two-phase cold start the gate was calibrated on:
the default all-slack dual start (``simplex._SLACK_START_MIN_COLS``) speeds
up the baseline arm too, so the gate pins it off.  At this size the default
solver takes the primal path only after a fallback, so the gate now guards
that fallback path.  On that path the baseline is not merely slow -- the
coverage LP is massively primal degenerate (one coverage row couples
hundreds of ``delta`` columns against near-duplicate monitor rows) and
Dantzig pricing stalls in the degenerate cone, so the baseline
deterministically fails to converge while the devex reference framework
prices out of it.  The gate therefore asserts both that the new
configuration reaches ``OPTIMAL`` and that it does so at least 3x faster
than the baseline takes to *fail*.  Both arms' wall-times and solver
counters (``ft_updates``, ``spike_nnz_peak``, ``pricing_passes``,
``degenerate_pivots``, recovery-rung counts, ...) are persisted to
``BENCH_optim.json`` under distinct names by the conftest harness.

The default path, dual pivots from the all-slack basis, is gated on its
counters by ``test_rocketfuel_root_relaxation_default_path``.
"""

from __future__ import annotations

import math
import time
from unittest import mock

import pytest

from repro.optim import SolveStatus
from repro.optim import instrumentation as instr
from repro.optim import simplex
from repro.optim.errors import SolverError
from repro.optim.simplex import solve_standard_form
from repro.passive.ilp import PPMSession
from repro.passive.problem import PPMProblem
from repro.topology import synthetic_rocketfuel
from repro.traffic import DemandConfig, generate_traffic_matrix

from tests.test_optim_sparse import DenseEtaFactor

#: Fraction of ingress/egress pairs carrying demand.  0.03 puts the lowered
#: root relaxation at ~1,300 columns / ~970 rows -- the smallest size where
#: the dense-eta + Dantzig baseline deterministically fails to converge.
_PAIR_FRACTION = 0.03

#: Iteration budget for the baseline arm.  Dantzig phase 1 needs upwards of
#: 57k iterations before its degenerate-stall abort on this instance, so
#: 40k makes the (deterministic) failure fast while staying far above any
#: budget a converging solve would need (the devex arm finishes in ~9k
#: pivots, recovery rungs included).
_BASELINE_MAX_ITER = 40_000

#: Required speedup of the new numeric core over the baseline's time-to-fail.
_SPEEDUP_FLOOR = 3.0

#: Root-relaxation objective, cross-checked against HiGHS on the same form.
_EXPECTED_OBJECTIVE = 29.453087968

#: Work ceilings for the default path (the all-slack dual start).  It takes
#: 1,546 dual pivots and 77 factorizations; the primal two-phase start took
#: 9,988 pivots and 494 factorizations.
_DEFAULT_PATH_MAX_PIVOTS = 2_500
_DEFAULT_PATH_MAX_FACTORIZATIONS = 150


@pytest.fixture(scope="module")
def rocketfuel_root_form():
    """The lowered PPM LP2 form on the synthetic Rocketfuel topology."""
    pop = synthetic_rocketfuel(seed=0)
    matrix = generate_traffic_matrix(
        pop, demand_config=DemandConfig(pair_fraction=_PAIR_FRACTION), seed=0
    )
    session = PPMSession(PPMProblem(matrix, coverage=0.9), backend="simplex")
    return session.model.to_standard_form()


def test_gate_rocketfuel_root_relaxation_speedup(
    benchmark, _bench_records, rocketfuel_root_form, monkeypatch
):
    """Wall-time gate: FT + devex must beat dense-eta + Dantzig by >= 3x.

    Runs the two arms back to back on the same lowered form, both on the
    primal two-phase cold start, persisting each arm's wall-time and counter
    snapshot separately so the trajectory in ``BENCH_optim.json`` attributes
    the win (spike updates, partial pricing passes, degenerate-pivot counts)
    instead of just asserting it.
    """
    form = rocketfuel_root_form
    monkeypatch.setattr(simplex, "_SLACK_START_MIN_COLS", math.inf)

    instr.reset()
    start = time.perf_counter()
    base_status = "no-convergence"
    with mock.patch.object(simplex, "_BasisFactor", DenseEtaFactor), mock.patch.object(
        simplex, "_DEVEX_MIN_COLS", math.inf
    ):
        try:
            base_solution = solve_standard_form(form, max_iter=_BASELINE_MAX_ITER)
            base_status = base_solution.status.name
        except SolverError:
            pass
    base_time = time.perf_counter() - start
    base_counters = instr.snapshot()
    _bench_records["wall"]["rocketfuel_root_lp[dense-eta+dantzig]"] = round(base_time, 3)
    _bench_records["counters"]["rocketfuel_root_lp[dense-eta+dantzig]"] = base_counters

    assert form.num_vars >= simplex._DEVEX_MIN_COLS
    instr.reset()
    start = time.perf_counter()
    solution = benchmark.pedantic(solve_standard_form, args=(form,), rounds=1, iterations=1)
    new_time = time.perf_counter() - start
    new_counters = instr.snapshot()
    _bench_records["wall"]["rocketfuel_root_lp[ft+devex]"] = round(new_time, 3)
    _bench_records["counters"]["rocketfuel_root_lp[ft+devex]"] = new_counters

    print(
        f"\nrocketfuel root LP ({form.num_vars} vars): "
        f"baseline[dense-eta+dantzig] {base_status} in {base_time:.2f}s "
        f"({base_counters['pivots']} pivots, "
        f"{base_counters['degenerate_pivots']} degenerate) vs "
        f"new[ft+devex] {solution.status.name} in {new_time:.2f}s "
        f"({new_counters['pivots']} pivots, {new_counters['ft_updates']} FT updates, "
        f"{new_counters['pricing_passes']} pricing passes)"
    )

    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(_EXPECTED_OBJECTIVE, abs=1e-5)
    # The win is attributable: spikes were actually used, partial pricing
    # actually scanned blocks rather than every column each pass.
    assert new_counters["ft_updates"] > 0
    assert new_counters["pricing_passes"] > 0
    assert 0 < new_counters["partial_scan_cols"]
    assert base_time >= _SPEEDUP_FLOOR * new_time, (
        f"FT + devex took {new_time:.2f}s against the dense-eta + Dantzig "
        f"baseline's {base_time:.2f}s ({base_status}); the numeric core must "
        f"hold a >= {_SPEEDUP_FLOOR:g}x advantage at Rocketfuel size"
    )


def test_rocketfuel_root_relaxation_default_path(rocketfuel_root_form):
    """Counter gate on the default path: the all-slack dual start.

    The primal loop prices with devex at this size, which the primal path
    pinned by the speedup gate above needs (Dantzig stalls there).  By
    default, though, the cold solve starts from the all-slack basis, which
    is dual feasible because the LP's costs are non-negative, and dual
    pivots repair the violated coverage rows.  That path must finish within
    the work ceilings above, with no recovery rung.
    """
    form = rocketfuel_root_form
    instr.reset()
    solution = solve_standard_form(form)
    counters = instr.snapshot()
    print(
        f"\nrocketfuel root LP, default path: {solution.status.name}, "
        f"{counters['pivots']} primal + {counters['dual_pivots']} dual pivots, "
        f"{counters['factorizations']} factorizations"
    )
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(_EXPECTED_OBJECTIVE, abs=1e-5)
    assert counters["dual_pivots"] > 0
    assert counters["pivots"] + counters["dual_pivots"] <= _DEFAULT_PATH_MAX_PIVOTS
    assert counters["factorizations"] <= _DEFAULT_PATH_MAX_FACTORIZATIONS
    rungs = {
        name: count
        for name, count in counters.items()
        if name.startswith("recovery_") or name == "warm_repair_stalls"
    }
    assert not any(rungs.values()), rungs
