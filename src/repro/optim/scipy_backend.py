"""SciPy (HiGHS) backend for the modelling layer.

SciPy bundles the HiGHS LP/MILP solver, which is considerably faster than the
in-house simplex/branch-and-bound on the larger experiment instances (for
example the 80-router POP of Figure 11).  This backend is optional: when
SciPy is not importable the rest of the library transparently falls back to
the pure-Python solvers.

Options honored by this backend (see :func:`repro.optim.backend.solve_model`):

==============  =========================================================
``time_limit``  Wall-clock limit in seconds (LPs and MILPs).
``mip_gap``     Relative optimality gap (MILPs; ignored for LPs).
``max_iter``    Simplex iteration limit (LPs; ignored for MILPs, where
                HiGHS does not expose a node-LP iteration limit).
==============  =========================================================

Warm starts and in-place re-solves are not supported by the SciPy interface;
:class:`repro.optim.backend.SolverSession` still avoids the model re-lowering
cost on this backend but each solve is cold.

The :class:`repro.optim.sparse.SparseMatrix` constraint matrices are handed
to ``linprog`` / ``milp`` as ``scipy.sparse`` CSC matrices directly -- HiGHS
consumes them natively, so the >95%-sparse placement models are never
densified on this path.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.optim.errors import SolverError
from repro.optim.model import StandardForm
from repro.optim.solution import Solution, SolveStatus

try:  # pragma: no cover - exercised implicitly by is_available()
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - environment without scipy
    _HAVE_SCIPY = False


def is_available() -> bool:
    """Return True when the SciPy/HiGHS backend can be used."""
    return _HAVE_SCIPY


def _status_from_scipy(
    success: bool, status_code: int, timed: bool = False
) -> SolveStatus:
    """Map SciPy's result codes onto the shared status enum.

    SciPy/HiGHS collapses every limit (iterations *and* wall clock) into
    status code 1; ``timed`` says whether the caller passed a ``time_limit``,
    in which case code 1 is reported as the honest ``TIME_LIMIT``.
    """
    if success:
        return SolveStatus.OPTIMAL
    if status_code == 2:
        return SolveStatus.INFEASIBLE
    if status_code == 3:
        return SolveStatus.UNBOUNDED
    if status_code == 1:
        return SolveStatus.TIME_LIMIT if timed else SolveStatus.ITERATION_LIMIT
    return SolveStatus.ERROR


def solve_lp(
    form: StandardForm,
    max_iter: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Solution:
    """Solve the continuous relaxation of ``form`` with HiGHS."""
    if not _HAVE_SCIPY:
        raise SolverError("scipy is not available; use the 'simplex' backend instead")
    options = {}
    if max_iter is not None:
        options["maxiter"] = int(max_iter)
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = linprog(
        c=form.c,
        A_ub=form.A_ub.to_scipy() if form.A_ub.size else None,
        b_ub=form.b_ub if form.b_ub.size else None,
        A_eq=form.A_eq.to_scipy() if form.A_eq.size else None,
        b_eq=form.b_eq if form.b_eq.size else None,
        bounds=list(zip(form.lb, form.ub)),
        method="highs",
        options=options or None,
    )
    status = _status_from_scipy(res.success, res.status, timed=time_limit is not None)
    if status is not SolveStatus.OPTIMAL:
        return Solution(
            status=status, backend="scipy-linprog", gap=math.inf if status.is_limit else 0.0
        )
    values = {name: float(res.x[i]) for i, name in enumerate(form.names)}
    # Reduced costs (min-sense): HiGHS reports them as the bound multipliers.
    # A variable rests on at most one bound at optimality, so the sum is its
    # reduced cost; guarded because older SciPy builds omit the marginals.
    reduced_costs = None
    lower = getattr(res, "lower", None)
    upper = getattr(res, "upper", None)
    if lower is not None and upper is not None:
        lo_m = getattr(lower, "marginals", None)
        up_m = getattr(upper, "marginals", None)
        if lo_m is not None and up_m is not None:
            reduced_costs = np.asarray(lo_m, dtype=float) + np.asarray(up_m, dtype=float)
    return Solution(
        status=status,
        objective=form.objective_value(res.x),
        values=values,
        backend="scipy-linprog",
        iterations=int(getattr(res, "nit", 0) or 0),
        reduced_costs=reduced_costs,
    )


def solve_mip(
    form: StandardForm,
    time_limit: Optional[float] = None,
    mip_gap: Optional[float] = None,
) -> Solution:
    """Solve ``form`` as a mixed-integer program with HiGHS.

    ``time_limit`` (seconds) and ``mip_gap`` (relative optimality gap) bound
    the solve; when the time limit is hit the best incumbent found so far is
    returned with status ``TIME_LIMIT`` and its gap reported in
    :attr:`~repro.optim.solution.Solution.gap`.
    """
    if not _HAVE_SCIPY:
        raise SolverError("scipy is not available; use the 'branch-and-bound' backend instead")
    constraints = []
    if form.A_ub.size:
        constraints.append(LinearConstraint(form.A_ub.to_scipy(), -np.inf, form.b_ub))
    if form.A_eq.size:
        constraints.append(LinearConstraint(form.A_eq.to_scipy(), form.b_eq, form.b_eq))
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)
    res = milp(
        c=form.c,
        constraints=constraints or None,
        bounds=Bounds(form.lb, form.ub),
        integrality=form.integrality,
        options=options or None,
    )
    if res.x is None:
        status = _status_from_scipy(res.success, res.status, timed=time_limit is not None)
        if status is SolveStatus.OPTIMAL:
            status = SolveStatus.ERROR
        return Solution(
            status=status, backend="scipy-milp", gap=math.inf if status.is_limit else 0.0
        )
    x = np.asarray(res.x, dtype=float)
    # Snap integer variables, HiGHS returns values within its own tolerance.
    for i, flag in enumerate(form.integrality):
        if flag:
            x[i] = round(x[i])
    status = _status_from_scipy(res.success, res.status, timed=time_limit is not None)
    values = {name: float(x[i]) for i, name in enumerate(form.names)}
    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    return Solution(
        status=status,
        objective=form.objective_value(x),
        values=values,
        backend="scipy-milp",
        iterations=int(getattr(res, "mip_node_count", 0) or 0),
        gap=gap,
    )
