"""Deadline propagation, recovery bookkeeping, and graceful degradation.

This module is the resilience substrate for the solver stack:

* :class:`Deadline` -- a monotonic wall-clock budget created once in
  :func:`repro.optim.backend._solve_form` and threaded through presolve,
  the simplex iteration loops, cut-separation rounds, strong-branching
  probes and the branch-and-bound node loop.  It is the **only** sanctioned
  ``time.monotonic()`` site in ``repro.optim`` (enforced by the SOLV005
  rule of ``tools/lint_solver.py``), which is what lets the fault-injection
  harness skew one clock and have every layer agree the budget expired.
* :func:`record_rung` -- one bookkeeping call per recovery-ladder rung:
  bumps the matching :mod:`repro.optim.instrumentation` counter and emits a
  structured :class:`repro.optim.analysis.Diagnostic` through the
  :mod:`repro.optim.diagnostics` reporter, so degraded solves are loud in
  counters and reports instead of silently falling through.
* :func:`greedy_form_solve` -- the last rung of the ``fallback="auto"``
  backend-failover chain: a deterministic repair heuristic over a lowered
  :class:`repro.optim.model.StandardForm` that starts every variable at its
  cost-minimizing bound and greedily moves single variables to reduce
  constraint violation.  It returns ``FEASIBLE`` (no optimality proof) with
  backend ``"greedy"``; the caller tags the solution with a
  :class:`repro.optim.solution.Degradation` record saying so.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro.optim import diagnostics
from repro.optim import faultinject
from repro.optim import instrumentation as instr
from repro.optim.analysis import WARNING, Diagnostic
from repro.optim.model import StandardForm
from repro.optim.solution import Degradation, Solution, SolveStatus

__all__ = [
    "Deadline",
    "Degradation",
    "greedy_form_solve",
    "record_rung",
]


def _now() -> float:
    """Monotonic clock, plus any fault-injected skew."""
    if faultinject.ACTIVE:
        return time.monotonic() + faultinject.clock_skew()
    return time.monotonic()


class Deadline:
    """A wall-clock budget anchored to the monotonic clock at creation.

    ``Deadline(None)`` is an unlimited deadline: :meth:`expired` is always
    False and costs one attribute check, so solver loops can thread a
    deadline unconditionally.  Limits must be positive and finite --
    :class:`repro.optim.backend` validates user-supplied ``time_limit``
    options before constructing one, but the constructor re-checks so a
    programmatic caller cannot build a deadline that is already nonsense.
    """

    __slots__ = ("_limit", "_expiry")

    def __init__(self, limit: Optional[float] = None) -> None:
        if limit is None:
            self._limit: Optional[float] = None
            self._expiry: Optional[float] = None
            return
        limit = float(limit)
        if not math.isfinite(limit) or limit <= 0.0:
            raise ValueError(
                f"deadline limit must be a positive finite number of seconds, got {limit!r}"
            )
        self._limit = limit
        # Anchor to the *raw* monotonic clock: injected clock skew (see
        # FaultPlan.jump_clock_after) moves the checks, not the anchor.
        self._expiry = time.monotonic() + limit

    @property
    def limit(self) -> Optional[float]:
        """The original budget in seconds (None for an unlimited deadline)."""
        return self._limit

    def expired(self) -> bool:
        """True once the budget has been consumed."""
        if self._expiry is None:
            return False
        return _now() >= self._expiry

    def remaining(self) -> float:
        """Seconds left (never negative); ``inf`` for an unlimited deadline."""
        if self._expiry is None:
            return math.inf
        return max(self._expiry - _now(), 0.0)

    def remaining_or_none(self) -> Optional[float]:
        """Seconds left as a backend ``time_limit`` value.

        Returns None for an unlimited deadline; an expired one yields a tiny
        positive value because external backends (HiGHS) reject a limit of
        exactly zero.
        """
        if self._expiry is None:
            return None
        return max(self._expiry - _now(), 1e-3)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._limit is None:
            return "Deadline(unlimited)"
        return f"Deadline(limit={self._limit:g}s, remaining={self.remaining():g}s)"


#: Recovery rung name -> instrumentation counter.
_RUNG_COUNTERS = {
    "warm-stall": "warm_repair_stalls",
    "bound-shift": "recovery_bound_shift",
    "shift-fallback": "recovery_shift_fallback",
    "slack-fallback": "recovery_slack_fallback",
    "failover": "backend_failovers",
    "greedy": "greedy_degradations",
}


def record_rung(rung: str, message: str, label: str = "solver") -> None:
    """Count a recovery-ladder rung and surface it as a warning diagnostic."""
    instr.add(_RUNG_COUNTERS[rung])
    diag = Diagnostic(severity=WARNING, rule=f"resilience-{rung}", message=message)
    diagnostics.report([diag], label=label)


# ---------------------------------------------------------------------------
# Greedy degradation rung
# ---------------------------------------------------------------------------

_GREEDY_TOL = 1e-7


def _start_point(form: StandardForm) -> np.ndarray:
    """Cost-minimizing finite bound per variable (0 when both bounds are open)."""
    c = np.asarray(form.c, dtype=float)
    preferred = np.where(c > 0.0, form.lb, np.where(c < 0.0, form.ub, form.lb))
    other = np.where(c > 0.0, form.ub, form.lb)
    start = np.where(np.isfinite(preferred), preferred, other)
    start = np.where(np.isfinite(start), start, 0.0)
    return np.clip(start, form.lb, form.ub)


def _candidate_steps(
    form: StandardForm, j: int, x_j: float, rows: np.ndarray, vals: np.ndarray, viol: np.ndarray
) -> "list[float]":
    """Moves of variable ``j`` worth scoring: to each bound, and the smallest
    step that clears every violated row this column can help."""
    steps = []
    for target in (float(form.lb[j]), float(form.ub[j])):
        if math.isfinite(target) and abs(target - x_j) > _GREEDY_TOL:
            steps.append(target - x_j)
    helpful = viol[rows] > _GREEDY_TOL
    if np.any(helpful):
        # Moving by delta changes row activity by vals * delta; a row is
        # helped when vals * delta < 0.  Take the largest per-row requirement
        # so one move clears every row this column can clear.
        # Clearing row i exactly takes delta = -viol_i / vals_i; group the
        # requirements by direction and take the largest magnitude so one
        # move clears every row this column can clear in that direction.
        need = -viol[rows][helpful] / vals[helpful]
        for sign in (1.0, -1.0):
            same_side = need * sign > 0.0
            if np.any(same_side):
                delta = sign * float(np.max(np.abs(need[same_side])))
                lo, hi = float(form.lb[j]) - x_j, float(form.ub[j]) - x_j
                delta = min(max(delta, lo), hi)
                if form.integrality[j]:
                    delta = math.ceil(delta) if delta > 0 else math.floor(delta)
                    delta = min(max(delta, lo), hi)
                if abs(delta) > _GREEDY_TOL:
                    steps.append(delta)
    return steps


def greedy_form_solve(form: StandardForm, deadline: Optional[Deadline] = None) -> Solution:
    """Deterministic feasibility repair over a lowered form.

    The last rung of backend failover: when every real solver is gone, find
    *some* feasible point so the caller gets a usable (if unproven) answer.
    Equality rows are only accepted when the starting point already
    satisfies them (the placement models lower to pure ``<=`` rows); the
    heuristic then greedily moves one variable at a time to the step that
    best reduces total ``A_ub`` violation per unit of added cost.  Returns
    ``FEASIBLE`` on success and ``ERROR`` when it gets stuck -- never an
    exception, because there is nothing left to fail over to.
    """
    n = form.num_vars
    if len(form.names) != n:
        return Solution(status=SolveStatus.ERROR, backend="greedy")
    c = np.asarray(form.c, dtype=float)
    x = _start_point(form)
    if form.integrality.any():
        ints = form.integrality.astype(bool)
        x[ints] = np.clip(np.round(x[ints]), form.lb[ints], form.ub[ints])

    if form.A_eq.shape[0]:
        resid = form.A_eq.matvec(x) - form.b_eq
        scale = 1.0 + np.abs(form.b_eq)
        if np.any(np.abs(resid) > 1e-6 * scale):
            return Solution(status=SolveStatus.ERROR, backend="greedy")

    m = form.A_ub.shape[0]
    act = form.A_ub.matvec(x)
    for _ in range(4 * (n + m) + 32):
        if deadline is not None and deadline.expired():
            return Solution(status=SolveStatus.TIME_LIMIT, backend="greedy", gap=math.inf)
        viol = act - form.b_ub if m else np.zeros(0)
        if not np.any(viol > _GREEDY_TOL):
            break
        best_score, best_move = 0.0, None
        for j in range(n):
            rows, vals = form.A_ub.col(j)
            if rows.size == 0 or not np.any(viol[rows] > _GREEDY_TOL):
                continue
            for delta in _candidate_steps(form, j, float(x[j]), rows, vals, viol):
                old_over = np.maximum(viol[rows], 0.0)
                new_over = np.maximum(viol[rows] + vals * delta, 0.0)
                reduction = float(np.sum(old_over - new_over))
                if reduction <= _GREEDY_TOL:
                    continue
                score = reduction / (1.0 + max(c[j] * delta, 0.0))
                if score > best_score + _GREEDY_TOL:
                    best_score, best_move = score, (j, delta)
        if best_move is None:
            return Solution(status=SolveStatus.ERROR, backend="greedy")
        j, delta = best_move
        x[j] += delta
        rows, vals = form.A_ub.col(j)
        act[rows] += vals * delta

    if m and np.any(act - form.b_ub > _GREEDY_TOL):
        return Solution(status=SolveStatus.ERROR, backend="greedy")
    if np.any(x < form.lb - _GREEDY_TOL) or np.any(x > form.ub + _GREEDY_TOL):
        return Solution(status=SolveStatus.ERROR, backend="greedy")
    return Solution(
        status=SolveStatus.FEASIBLE,
        objective=form.objective_value(x),
        values={name: float(val) for name, val in zip(form.names, x)},
        backend="greedy",
    )
