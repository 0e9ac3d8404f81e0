"""Lightweight global performance counters for the optimization stack.

The sparse revised simplex and the branch-and-bound driver report what they
actually did -- pivots, basis (re)factorizations, canonicalizations, peak
stored nonzeros -- through this module, so benchmarks can attribute
wall-time wins to solver behaviour instead of guessing (the counters are
persisted next to the wall-times in ``BENCH_optim.json``).  The static
model analyzer (:mod:`repro.optim.analysis`, run by ``python -m repro
lint-model``) reports its runs and finding counts here too.

The counters are process-global and not thread-safe; the repo's workloads
are single-threaded solves.  Typical usage::

    from repro.optim import instrumentation as instr

    instr.reset()
    ... run solves ...
    print(instr.snapshot()["pivots"])
"""

from __future__ import annotations

from typing import Dict

#: Counter names tracked by the solver stack.
COUNTER_NAMES = (
    "pivots",             # primal simplex pivots (bound flips included)
    "bound_flips",        # primal pivots that were pure bound flips (no basis change)
    "degenerate_pivots",  # primal pivots with a (near-)zero objective step
    "dual_pivots",        # dual simplex (warm-start repair) pivots
    "sparse_pivot_rows",  # dual pivot rows built from rho's nonzero rows only
    "factorizations",     # basis LU factorizations, initial ones included
    "refactorizations",   # periodic refactorizations triggered by eta growth
    "eta_updates",        # basis updates between factorizations (all kinds)
    "ft_updates",         # Forrest-Tomlin sparse-spike basis updates
    "spike_nnz_peak",     # peak stored nonzeros across one factor's spike file
    "pricing_passes",     # devex/partial pricing passes over candidate blocks
    "devex_resets",       # devex reference-framework weight resets
    "partial_scan_cols",  # columns scanned by partial pricing (sum over passes)
    "canonicalizations",  # StandardForm -> canonical bounded-LP lowerings
    "lp_solves",          # LP solves completed by the in-house simplex
    "peak_nnz",           # peak stored nonzeros (canonical matrix + eta file)
    "analyzer_runs",      # static analyzer passes executed
    "analyzer_findings",  # diagnostics emitted across those passes
    "bb_nodes",           # branch-and-bound nodes explored
    "presolve_rows_removed",    # constraint rows eliminated by presolve
    "presolve_cols_fixed",      # variables fixed/eliminated by presolve
    "presolve_coeffs_tightened",  # coefficients strengthened by presolve
    "cuts_added",         # cutting planes appended by the cut loop
    "rc_fixings",         # reduced-cost bound tightenings applied at nodes
    "dual_bound_flips",   # entering-variable bound flips in the dual ratio test
    "strong_branch_probes",  # child-LP probes made to initialize pseudocosts
    "warm_repair_stalls",    # warm-start dual repairs that stalled into a cold solve
    "recovery_refactorize",  # numerical retries on a fresh LU factorization
    "recovery_perturb",      # cost-perturbation retries (with post-solve cleanup)
    "recovery_bound_shift",  # bound-shift retries for degenerate stalls (with repair)
    "recovery_shift_fallback",  # proactive bound-shift solves that fell back to exact bounds
    "recovery_slack_fallback",  # all-slack dual cold starts that fell back to the primal ladder
    "recovery_bland",        # forced-Bland-pricing retries
    "backend_failovers",     # fallback="auto" hops to another backend
    "greedy_degradations",   # fallback="auto" solves finished by the greedy rung
    "deadline_expiries",     # solves that returned TIME_LIMIT on an expired Deadline
    "colgen_rounds",         # column-generation master/pricing rounds completed
    "columns_priced",        # columns priced by the column-generation oracle (sum)
    "columns_added",         # columns admitted into the restricted master
    "colgen_rows_activated", # dropped rows activated into the restricted master
    "master_resolves",       # restricted-master LP solves (warm or cold)
    "lagrangian_bound_gap",  # final colgen primal-dual gap, parts-per-million (max)
)

_counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}


def reset() -> None:
    """Zero every counter."""
    for name in COUNTER_NAMES:
        _counters[name] = 0


def add(name: str, amount: int = 1) -> None:
    """Increment counter ``name`` by ``amount``."""
    _counters[name] += int(amount)


def record_max(name: str, value: int) -> None:
    """Raise counter ``name`` to ``value`` when it is a new high-water mark."""
    if value > _counters[name]:
        _counters[name] = int(value)


def get(name: str) -> int:
    """Current value of counter ``name``."""
    return _counters[name]


def snapshot() -> Dict[str, int]:
    """A point-in-time copy of every counter."""
    return dict(_counters)
