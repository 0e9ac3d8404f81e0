"""Restricted-master / pricing column generation for Internet-scale LPs.

The monolithic solve path lowers *every* device / interface column of the
placement LPs up front, so memory and factorization cost scale with the
instance, not with the part of it the optimum actually uses.  At the
ROADMAP's target sizes (thousands of links, 10^4..10^5+ traffic pairs) that
is the wrong shape: the paper's coverage LPs are solved by a small working
set of columns, and the rest exist only to be priced out.

This module implements the decomposition the in-house backends switch to
once a lowered LP is wide enough (:func:`decomposes`).  It is an LP
algorithm: the dispatcher never decomposes a MILP, so a wide MILP goes
through presolve and :func:`repro.optim.branch_and_bound.solve_milp` like
every narrower one, while the ``simplex`` backend still decomposes wide LP
relaxations.  The decomposition has four parts:

* **Restricted master.**  A :class:`~repro.optim.model.StandardForm` slice
  holding only the *active* columns and the *active* inequality rows.  A
  row may be dropped exactly while it can never be violated: the maximum
  activity its active columns can produce (each at its extreme bound for
  its coefficient sign), plus the fixed contribution of inactive columns
  resting at their :func:`rest point <ColumnGeneration>`, stays within the
  right-hand side.  Activating a column updates those activity budgets and
  auto-activates any row that becomes violable, so the restriction is
  *exact*: any master-feasible point extends to a full-form-feasible point
  by setting inactive columns to their rest values.  Equality rows are
  always active.
* **Pricing oracle.**  Reduced costs ``d = c - A^T y`` over the *full*
  column universe, computed in blocks with the CSC
  :meth:`~repro.optim.sparse.SparseMatrix.rmatvec_range` kernel -- inactive
  columns are never materialized into any working matrix.  Duals of
  dropped rows come from a model-specific completion hook
  (:attr:`ColGenHints.complete_duals`; zeros by default), and columns whose
  reduced cost certifies an improving move are admitted in rounds until
  none remain.
* **Lagrangian bound.**  Any sign-correct dual vector ``y`` (nonpositive
  on ``<=`` rows) yields the bound ``L(y) = y @ b + sum_j min(d_j lb_j,
  d_j ub_j) + offset`` on the full LP -- the pricing subproblem evaluated
  for free during every pricing pass.  The loop keeps the best bound seen,
  terminates early when the master objective meets it, and reports an
  honest relative gap (and ``TIME_LIMIT`` through the one
  :class:`~repro.optim.resilience.Deadline` it was handed) when it stops
  for any other reason.
* **Warm bases across appends.**  Each master re-solve goes through
  :func:`repro.optim.simplex.resolve_appended`, the step the root cut loop
  of branch and bound shares: it migrates the previous optimal basis with
  :func:`repro.optim.simplex.extend_warm_basis` (appended columns enter
  non-basic at a bound, appended rows enter with their slack basic), and
  the usual warm-start machinery (primal resume or dual repair) takes it
  from there.

Invariants shared with the rest of the stack: at most one ``Deadline``
exists per solve and is threaded through every master solve and pricing
round (never re-created); no wall-clock reads outside
:mod:`repro.optim.resilience` (lint rule SOLV005); the full form's arrays
are treated as read-only here -- every master is built into fresh arrays
(lint rule SOLV004).  A pricing pass that produces a non-finite reduced
cost (the ``corrupt_pricing`` fault site) raises
:class:`~repro.optim.errors.SolverError` at once: re-pricing the same duals
against the same matrix would only repeat it, so the ``fallback="auto"``
failover chain takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.optim import faultinject
from repro.optim import instrumentation as instr
from repro.optim._types import BoolArray, FloatArray, IntArray
from repro.optim.errors import InternalSolverError, SolverError
from repro.optim.model import StandardForm
from repro.optim.resilience import Deadline
from repro.optim.simplex import WarmStart, resolve_appended
from repro.optim.solution import Solution, SolveStatus
from repro.optim.sparse import SparseMatrix

__all__ = [
    "ColGenHints",
    "ColumnGeneration",
    "decomposes",
    "solve_form_colgen",
]

#: Column count at which the in-house backends switch to column generation
#: (mirrors the devex threshold: below this the monolithic lowering is
#: small enough that decomposition overhead cannot pay for itself).
_COLGEN_MIN_COLS = 4000

#: Columns priced per ``rmatvec_range`` batch.
_PRICE_BLOCK = 4096

#: Reduced-cost magnitude below which a column is not worth admitting.
_PRICE_TOL = 1e-7

#: Relative primal-dual gap accepted as proof of optimality (matches the
#: cross-backend differential tolerance used by the test suite).
_GAP_TOL = 1e-6

#: Safety net on master/pricing rounds; admission is monotone so real
#: instances converge in far fewer.
_MAX_ROUNDS = 200

#: Columns admitted from the expansion order when a restricted master comes
#: back infeasible (doubled implicitly as the active set grows).
_EXPAND_CHUNK = 256


def decomposes(form: StandardForm) -> bool:
    """Whether ``form`` is wide enough for column generation.

    The in-house backends decompose an LP (or the ``simplex`` backend's LP
    relaxation) from :data:`_COLGEN_MIN_COLS` columns on; narrower LPs and
    every MILP are solved monolithically.
    """
    return form.num_vars >= _COLGEN_MIN_COLS


@dataclass(frozen=True)
class ColGenHints:
    """Model-specific knowledge that sharpens the generic decomposition.

    All fields are optional; the driver is exact without them, just slower
    to converge (zero dual completion can leave whole column families
    looking attractive at once).  Indices refer to the *full* form's
    variable order; row indices are full-form row order (``<=`` rows in
    lowering order, then ``==`` rows).

    Attributes
    ----------
    initial_columns:
        Columns to activate before the first master solve (e.g. LP2's
        highest-volume traffic fractions plus a greedy link cover).
    expansion_order:
        Priority order over all columns used when an infeasible restricted
        master must be widened; defaults to index order.
    complete_duals:
        ``complete_duals(y, dropped)`` fills dual estimates for *dropped*
        ``<=`` rows into ``y`` in place (``y`` has one entry per full-form
        row; ``dropped`` is a boolean mask over the ``<=`` block).  The
        estimates must respect dual signs (nonpositive for ``<=`` rows);
        the driver clips as a safety net.  A good completion makes the
        reduced costs of never-activated columns exact -- LP2's
        ``y_t = v_t * y_cov`` turns every inactive traffic-fraction
        column's reduced cost to exactly zero, which is what keeps the
        master from flooding with coverage columns.
    """

    initial_columns: Tuple[int, ...] = ()
    expansion_order: Optional[Tuple[int, ...]] = None
    complete_duals: Optional[Callable[[FloatArray, BoolArray], None]] = None


def _extreme_terms(data: FloatArray, lo: FloatArray, hi: FloatArray) -> FloatArray:
    """Per-entry ``max(a*lo, a*hi)`` that treats explicit zeros as zero.

    A stored zero times an infinite bound would be NaN under IEEE rules;
    structurally it contributes nothing to any activity bound.
    """
    out = np.zeros(data.size)
    nz = data != 0.0
    out[nz] = np.maximum(data[nz] * lo[nz], data[nz] * hi[nz])
    return out


class ColumnGeneration:
    """Drives the restricted-master / pricing loop over one full form.

    The instance owns the mutable decomposition state (active column / row
    sets, the current master and its warm basis) and may be kept across
    re-solves: :class:`repro.optim.backend.SolverSession` reuses one driver
    so bound / right-hand-side / objective patches between solves keep the
    active set and warm basis, exactly like the monolithic warm path.  The
    full form's arrays are only ever read; every numeric aggregate is
    recomputed from them at the start of each round, so in-place session
    patches need no notification -- except matrix-coefficient patches,
    which must be followed by :meth:`refresh_data`.

    The *rest point* of an inactive column is the feasible value closest to
    zero (``clip(0, lb, ub)``); master right-hand sides and the objective
    offset absorb the rest contributions, so the master is exactly the full
    problem with inactive columns fixed at rest.
    """

    def __init__(
        self,
        form: StandardForm,
        hints: Optional[ColGenHints] = None,
        max_iter: Optional[int] = None,
    ) -> None:
        self.form = form
        self.hints = hints or ColGenHints()
        self.max_iter = max_iter
        self._A_ub = form.A_ub
        self._A_eq = form.A_eq
        self.n = form.num_vars
        self.m_ub = self._A_ub.shape[0]
        self.m_eq = self._A_eq.shape[0]
        self.active_cols: List[int] = []
        self.active_mask: BoolArray = np.zeros(self.n, dtype=bool)
        self.active_ub: List[int] = []
        self.active_ub_mask: BoolArray = np.zeros(self.m_ub, dtype=bool)
        self._warm: Optional[WarmStart] = None
        self._master_A_ub: Optional[SparseMatrix] = None
        self._master_A_eq: Optional[SparseMatrix] = None
        self._built_cols = 0
        self._built_ub = 0
        self._matrices_dirty = False
        self._rest: FloatArray = np.zeros(self.n)
        self._rest_act_ub: FloatArray = np.zeros(self.m_ub)
        self._rest_act_eq: FloatArray = np.zeros(self.m_eq)
        self._max_act: FloatArray = np.zeros(self.m_ub)
        self._rest_cost = 0.0
        self.best_bound = -math.inf  # best Lagrangian bound, min-sense
        self.rounds = 0
        self._iterations = 0

    # -- data refresh ------------------------------------------------------
    def refresh_data(self) -> None:
        """Re-read the full form after matrix-*coefficient* patches.

        Bounds, right-hand sides and objective coefficients are re-read on
        every solve and need no call; coefficient patches change the
        sparsity-pattern-derived state (master matrices, activity budgets),
        which this invalidates.  The active sets and the warm basis are
        kept -- the master keeps its shape, so the next solve refactorizes
        once and repairs instead of cold-starting.
        """
        self._matrices_dirty = True

    def _recompute_aggregates(self) -> None:
        """Rebuild rest point and row-activity budgets from current data."""
        form = self.form
        self._rest = rest = np.clip(np.zeros(self.n), form.lb, form.ub)
        inactive = ~self.active_mask
        rest_masked = np.where(inactive, rest, 0.0)
        self._rest_act_ub = self._A_ub.matvec(rest_masked)
        self._rest_act_eq = self._A_eq.matvec(rest_masked)
        self._rest_cost = float(form.c[inactive] @ rest[inactive])
        max_act = self._rest_act_ub.copy()
        if self._A_ub.nnz and self.active_mask.any():
            cid = self._A_ub.col_ids()
            on = self.active_mask[cid]
            if on.any():
                extreme = _extreme_terms(
                    self._A_ub.data[on], form.lb[cid[on]], form.ub[cid[on]]
                )
                rows = self._A_ub.indices[on]
                finite = np.isfinite(extreme)
                max_act += np.bincount(
                    rows[finite], weights=extreme[finite], minlength=self.m_ub
                )
                if not finite.all():
                    inf_rows = np.unique(rows[~finite])
                    max_act[inf_rows] = math.inf
        self._max_act = max_act

    def _activate_forced_rows(self) -> int:
        """Activate every dropped ``<=`` row that is no longer safe."""
        b_ub = self.form.b_ub
        tol = 1e-9 * (1.0 + np.abs(b_ub)) if self.m_ub else np.zeros(0)
        forced = np.flatnonzero(~self.active_ub_mask & (self._max_act > b_ub + tol))
        for row in forced:
            self.active_ub_mask[row] = True
            self.active_ub.append(int(row))
        if forced.size:
            instr.add("colgen_rows_activated", int(forced.size))
        return int(forced.size)

    def _activate_columns(self, cols: Sequence[int]) -> int:
        fresh = [int(j) for j in cols if not self.active_mask[j]]
        for j in fresh:
            self.active_mask[j] = True
            self.active_cols.append(j)
        if fresh:
            instr.add("columns_added", len(fresh))
        return len(fresh)

    # -- initialization ----------------------------------------------------
    def _expansion_order(self) -> Tuple[int, ...]:
        if self.hints.expansion_order is not None:
            return self.hints.expansion_order
        return tuple(range(self.n))

    def _ensure_initialized(self) -> None:
        if self.active_cols:
            return
        if self.hints.initial_columns:
            self._activate_columns(self.hints.initial_columns)
        if not self.active_cols:
            self._activate_columns(self._expansion_order()[:_EXPAND_CHUNK])

    def _expand_after_infeasible(self) -> int:
        """Widen the active set along the expansion order; 0 = exhausted."""
        want = max(_EXPAND_CHUNK, len(self.active_cols))
        added = 0
        for j in self._expansion_order():
            if added >= want:
                break
            if not self.active_mask[j]:
                self.active_mask[j] = True
                self.active_cols.append(int(j))
                added += 1
        if added:
            instr.add("columns_added", added)
        return added

    # -- restricted master -------------------------------------------------
    def _ub_block(self, cols: Sequence[int], row_pos: IntArray) -> SparseMatrix:
        """Active-row slice of the ``<=`` block for the given columns."""
        sub = self._A_ub.take_columns(cols)
        keep = row_pos[sub.indices] >= 0
        return SparseMatrix.from_coo(
            row_pos[sub.indices[keep]],
            sub.col_ids()[keep],
            sub.data[keep],
            (len(self.active_ub), len(cols)),
        )

    def _build_master(self) -> StandardForm:
        form = self.form
        act_cols = np.asarray(self.active_cols, dtype=np.int64)
        act_ub = np.asarray(self.active_ub, dtype=np.int64)
        row_pos = np.full(self.m_ub, -1, dtype=np.int64)
        row_pos[act_ub] = np.arange(act_ub.size, dtype=np.int64)

        appendable = (
            self._master_A_ub is not None
            and self._master_A_eq is not None
            and not self._matrices_dirty
            and len(self.active_ub) == self._built_ub
            and len(self.active_cols) >= self._built_cols
        )
        if appendable:
            new_cols = self.active_cols[self._built_cols :]
            if new_cols:
                a_ub = self._master_A_ub
                a_eq = self._master_A_eq
                if a_ub is None or a_eq is None:  # pragma: no cover - guarded above
                    raise InternalSolverError("append path lost its master matrices")
                a_ub.append_columns(self._ub_block(new_cols, row_pos))
                a_eq.append_columns(self._A_eq.take_columns(new_cols))
        else:
            self._master_A_ub = self._ub_block(act_cols, row_pos)
            self._master_A_eq = self._A_eq.take_columns(act_cols)
            self._matrices_dirty = False
        self._built_cols = len(self.active_cols)
        self._built_ub = len(self.active_ub)

        return StandardForm(
            c=form.c[act_cols].copy(),
            A_ub=self._master_A_ub,
            b_ub=form.b_ub[act_ub] - self._rest_act_ub[act_ub],
            A_eq=self._master_A_eq,
            b_eq=form.b_eq - self._rest_act_eq,
            lb=form.lb[act_cols].copy(),
            ub=form.ub[act_cols].copy(),
            integrality=np.asarray(form.integrality)[act_cols].copy(),
            names=[form.names[j] for j in self.active_cols],
            objective_offset=form.objective_offset + self._rest_cost,
            maximize=form.maximize,
        )

    def _solve_master(
        self, master: StandardForm, deadline: Optional[Deadline]
    ) -> Tuple[Solution, Optional[WarmStart]]:
        instr.add("master_resolves")
        _, solution, warm = resolve_appended(
            master, self._warm, max_iter=self.max_iter, deadline=deadline
        )
        self._iterations += solution.iterations
        if warm is not None:
            self._warm = warm
        return solution, warm

    # -- pricing -----------------------------------------------------------
    def _dual_vector(self, solution: Solution) -> FloatArray:
        duals = solution.duals
        if duals is None:
            raise InternalSolverError("restricted master solve returned no duals")
        y = np.zeros(self.m_ub + self.m_eq)
        n_act_ub = len(self.active_ub)
        if n_act_ub:
            y[np.asarray(self.active_ub, dtype=np.int64)] = duals[:n_act_ub]
        y[self.m_ub :] = duals[n_act_ub:]
        dropped = ~self.active_ub_mask
        if self.hints.complete_duals is not None and bool(dropped.any()):
            self.hints.complete_duals(y, dropped)
        if self.m_ub:
            # <= row duals must be nonpositive for the Lagrangian bound.
            np.minimum(y[: self.m_ub], 0.0, out=y[: self.m_ub])
        return y

    def _price(self, y: FloatArray) -> FloatArray:
        """Reduced costs over the full column universe, in CSC blocks.

        Raises :class:`SolverError` when a reduced cost is not finite.
        """
        c = self.form.c
        y_ub = y[: self.m_ub]
        y_eq = y[self.m_ub :]
        d = np.empty(self.n)
        for lo in range(0, self.n, _PRICE_BLOCK):
            hi = min(self.n, lo + _PRICE_BLOCK)
            blk = c[lo:hi] - self._A_ub.rmatvec_range(lo, hi, y_ub)
            if self.m_eq:
                blk -= self._A_eq.rmatvec_range(lo, hi, y_eq)
            if faultinject.ACTIVE:
                blk = faultinject.corrupt_vector(faultinject.PRICING, blk)
            d[lo:hi] = blk
            instr.add("columns_priced", hi - lo)
        if not bool(np.isfinite(d).all()):
            raise SolverError("column-generation pricing produced non-finite reduced costs")
        return d

    def _lagrangian_bound(self, y: FloatArray, d: FloatArray) -> float:
        form = self.form
        value = float(y[: self.m_ub] @ form.b_ub) + float(y[self.m_ub :] @ form.b_eq)
        value += form.objective_offset
        pos = d > 0.0
        neg = d < 0.0
        value += float(np.sum(d[pos] * form.lb[pos]))
        value += float(np.sum(d[neg] * form.ub[neg]))
        return value

    # -- violation analysis ------------------------------------------------
    def _master_values(self, solution: Solution) -> FloatArray:
        names = self.form.names
        vals = solution.values
        return np.fromiter(
            (vals[names[j]] for j in self.active_cols),
            dtype=float,
            count=len(self.active_cols),
        )

    def _full_point(self, solution: Solution) -> FloatArray:
        x = self._rest.copy()
        if self.active_cols:
            x[np.asarray(self.active_cols, dtype=np.int64)] = self._master_values(
                solution
            )
        return x

    def _violations(
        self, d: FloatArray, x: FloatArray, tol: float
    ) -> Tuple[IntArray, IntArray]:
        """(inactive columns to admit, active columns with a dual conflict).

        A column certifies an improving move when its reduced cost points
        away from the bound its current value rests at (or is nonzero while
        the value sits strictly between bounds).  For inactive columns the
        cure is admission; for active columns the conflict can only come
        from a completed dual on a dropped row touching the column, and the
        cure is activating those rows (see :meth:`_rows_for_conflicts`).
        """
        lb, ub = self.form.lb, self.form.ub
        at_lb = np.zeros(self.n, dtype=bool)
        at_ub = np.zeros(self.n, dtype=bool)
        fin_lb = np.isfinite(lb)
        fin_ub = np.isfinite(ub)
        at_lb[fin_lb] = x[fin_lb] <= lb[fin_lb] + 1e-7 * (1.0 + np.abs(lb[fin_lb]))
        at_ub[fin_ub] = x[fin_ub] >= ub[fin_ub] - 1e-7 * (1.0 + np.abs(ub[fin_ub]))
        bad = (~at_lb) & (d > tol)
        bad |= (~at_ub) & (d < -tol)
        bad &= lb < ub
        inactive_bad = np.flatnonzero(bad & ~self.active_mask)
        active_bad = np.flatnonzero(bad & self.active_mask)
        return inactive_bad, active_bad

    def _activate_slack_dual_rows(self, y: FloatArray, x: FloatArray, tol: float) -> int:
        """Activate dropped rows whose completed dual is inconsistent.

        The optimality certificate needs complementary slackness on *every*
        row: a dropped row carrying a nonzero completed dual while slack at
        the current point would let the dual completion hide an improving
        move, so such rows join the master instead.
        """
        if not self.m_ub:
            return 0
        b_ub = self.form.b_ub
        slack = b_ub - self._A_ub.matvec(x)
        bad = ~self.active_ub_mask
        bad &= np.abs(y[: self.m_ub]) > tol
        bad &= slack > 1e-7 * (1.0 + np.abs(b_ub))
        rows = np.flatnonzero(bad)
        for row in rows:
            self.active_ub_mask[row] = True
            self.active_ub.append(int(row))
        if rows.size:
            instr.add("colgen_rows_activated", int(rows.size))
        return int(rows.size)

    def _rows_for_conflicts(self, cols: IntArray, y: FloatArray, tol: float) -> int:
        """Activate dropped rows whose completed dual touches ``cols``."""
        rows: "set[int]" = set()
        for j in cols:
            idx, val = self._A_ub.col(int(j))
            mask = (~self.active_ub_mask[idx]) & (val != 0.0)
            mask &= np.abs(y[idx]) > tol
            rows.update(int(r) for r in idx[mask])
        for row in sorted(rows):
            if not self.active_ub_mask[row]:
                self.active_ub_mask[row] = True
                self.active_ub.append(row)
        if rows:
            instr.add("colgen_rows_activated", len(rows))
        return len(rows)

    # -- result packaging --------------------------------------------------
    def _z_min(self, solution: Solution) -> float:
        if solution.objective is None:
            return math.inf
        return -solution.objective if self.form.maximize else solution.objective

    def _relative_gap(self, z_min: float) -> float:
        if not math.isfinite(self.best_bound):
            return math.inf
        return max(0.0, z_min - self.best_bound) / max(1.0, abs(z_min))

    def _record_gap(self, gap: float) -> None:
        if math.isfinite(gap):
            instr.record_max("lagrangian_bound_gap", int(round(min(gap, 1.0) * 1e6)))

    def _package(
        self,
        x: FloatArray,
        status: SolveStatus,
        gap: Optional[float],
        d: Optional[FloatArray],
        y: Optional[FloatArray],
    ) -> Solution:
        form = self.form
        values = {name: float(x[i]) for i, name in enumerate(form.names)}
        return Solution(
            status=status,
            objective=form.objective_value(x),
            values=values,
            backend="colgen",
            iterations=self._iterations,
            gap=gap,
            reduced_costs=d,
            duals=y,
        )

    def _bare(self, status: SolveStatus) -> Solution:
        # A limit exit without a point bounds nothing: its gap is unknown.
        return Solution(
            status=status,
            backend="colgen",
            iterations=self._iterations,
            gap=math.inf if status.is_limit else 0.0,
        )

    # -- driver ------------------------------------------------------------
    def solve_lp(self, deadline: Optional[Deadline] = None) -> Solution:
        """Run the column-generation loop on the LP (relaxation) and return.

        Exactness at ``OPTIMAL``: the final point is master-optimal, every
        column's reduced cost under the assembled dual vector certifies its
        value, and dropped rows cannot be violated by construction -- so
        the relative primal-dual gap (also reported on every non-optimal
        exit) is within :data:`_GAP_TOL`.
        """
        self._ensure_initialized()
        self.best_bound = -math.inf
        self._iterations = 0
        tol_scale = 1.0 + (float(np.max(np.abs(self.form.c))) if self.n else 0.0)
        price_tol = _PRICE_TOL * tol_scale
        tightened = False
        last_x: Optional[FloatArray] = None
        last_gap = math.inf

        for _ in range(_MAX_ROUNDS):
            if deadline is not None and deadline.expired():
                instr.add("deadline_expiries")
                if last_x is not None:
                    return self._package(
                        last_x, SolveStatus.TIME_LIMIT, last_gap, None, None
                    )
                return self._bare(SolveStatus.TIME_LIMIT)
            self._recompute_aggregates()
            self._activate_forced_rows()
            master = self._build_master()
            solution, warm = self._solve_master(master, deadline)
            self.rounds += 1
            instr.add("colgen_rounds")

            if solution.status is SolveStatus.INFEASIBLE:
                if self._expand_after_infeasible() == 0:
                    # Every column is active and the remaining dropped rows
                    # are provably redundant, so this restriction *is* the
                    # full problem: the infeasibility is genuine.
                    return self._bare(SolveStatus.INFEASIBLE)
                continue
            if solution.status is SolveStatus.UNBOUNDED:
                # A master ray extends to the full form: any unbounded
                # direction only uses active columns, and a dropped row's
                # activity cannot increase along it (an infinite-bound
                # column with a same-sign coefficient would have activated
                # the row already).
                return self._bare(SolveStatus.UNBOUNDED)
            if solution.status is not SolveStatus.OPTIMAL or warm is None:
                if not solution.values:
                    return self._bare(solution.status)
                x = self._full_point(solution)
                gap = self._relative_gap(self._z_min(solution))
                return self._package(x, solution.status, gap, None, None)

            x = self._full_point(solution)
            y = self._dual_vector(solution)
            d = self._price(y)
            bound = self._lagrangian_bound(y, d)
            self.best_bound = max(self.best_bound, bound)
            z_min = self._z_min(solution)
            gap = self._relative_gap(z_min)
            last_x, last_gap = x, gap
            if gap <= _GAP_TOL:
                self._record_gap(gap)
                return self._package(x, SolveStatus.OPTIMAL, 0.0, d, y)

            to_admit, conflicted = self._violations(d, x, price_tol)
            progressed = 0
            if to_admit.size:
                order = np.argsort(
                    np.where(d[to_admit] < 0, d[to_admit], -d[to_admit])
                )
                cap = max(128, len(self.active_cols) // 4)
                progressed += self._activate_columns(to_admit[order][:cap])
            if conflicted.size:
                progressed += self._rows_for_conflicts(conflicted, y, price_tol)
            progressed += self._activate_slack_dual_rows(y, x, price_tol)
            if progressed == 0:
                if not tightened:
                    # One sharper look before concluding: sub-tolerance
                    # residuals can hide a genuinely improving column.
                    tightened = True
                    price_tol = _PRICE_TOL
                    continue
                self._record_gap(gap)
                if conflicted.size == 0 and to_admit.size == 0:
                    # Complementary-slackness certificate: the point is
                    # master-optimal, every column's reduced cost matches
                    # its value, and every nonzero dual sits on a tight or
                    # active row -- optimal at the working tolerance even
                    # when infinite boxes make the Lagrangian bound loose.
                    return self._package(x, SolveStatus.OPTIMAL, 0.0, d, y)
                return self._package(x, SolveStatus.FEASIBLE, gap, d, y)

        if last_x is not None:
            self._record_gap(last_gap)
            return self._package(
                last_x, SolveStatus.ITERATION_LIMIT, last_gap, None, None
            )
        return self._bare(SolveStatus.ITERATION_LIMIT)


def solve_form_colgen(
    form: StandardForm,
    options: Dict[str, Any],
    deadline: Optional[Deadline] = None,
) -> Solution:
    """One-shot column-generation solve of a lowered LP.

    This is the entry point :mod:`repro.optim.backend` dispatches to when
    an LP's form :func:`decomposes`; sessions keep a
    :class:`ColumnGeneration` instance instead, to preserve the active set
    and warm basis across re-solves.
    """
    driver = ColumnGeneration(form, max_iter=options.get("max_iter"))
    return driver.solve_lp(deadline=deadline)
