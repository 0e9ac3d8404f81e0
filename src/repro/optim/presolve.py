"""LP/MILP presolve: shrink a :class:`StandardForm` before any backend sees it.

This is the one module that reasons about rows and columns over the variable
bounds: row activity ranges over the variable box find redundant, forcing and
infeasible rows, and parallel-row signatures find duplicate/dominated rows.
It builds a smaller :class:`ReducedForm` plus a :class:`Postsolve` object
that maps solutions (values and reduced costs) back to the original variable
space, so callers keep addressing original indices and names.  The static
analyzer (:mod:`repro.optim.analysis`) dry-runs :func:`presolve` to report
infeasible, redundant and duplicate rows instead of detecting them itself.

Reductions applied, to a fixpoint (bounded by :data:`_MAX_ROUNDS` rounds):

* **fixed-variable elimination** -- columns with ``lb == ub`` are substituted
  into the right-hand sides and dropped (their objective contribution moves
  into the offset);
* **singleton rows** -- a row with one nonzero is converted into a variable
  bound and removed;
* **empty / redundant row removal** -- rows whose maximum activity over the
  bounds cannot exceed the rhs are dropped; rows whose *minimum* activity
  already violates it prove infeasibility;
* **forcing rows** -- an inequality whose minimum activity equals the rhs
  pins every variable in its support to the activity-minimizing bound;
* **parallel-row deduplication** -- among parallel same-direction inequality
  rows only the tightest survives; parallel equalities are deduplicated or,
  when their right-hand sides disagree, refute feasibility;
* **coefficient tightening** (``integer_aware`` only) -- for a ``<=`` row
  with a binary column ``j`` and maximum activity ``U``, when
  ``0 < U - b < |a_j|`` the coefficient is shrunk to magnitude ``U - b``
  (for ``a_j > 0`` the rhs moves to ``U - a_j``), which keeps every integer
  point and strictly tightens the LP relaxation;
* **integer bound rounding** (``integer_aware`` only) -- fractional bounds
  on integer columns are rounded inward;
* **empty-column removal** -- a variable in no remaining row is fixed at its
  objective-preferred bound (left in place when that bound is infinite, so
  unboundedness is still detected by the solver).

``integer_aware`` gates every reduction that is only valid when integrality
is enforced; callers solving the pure LP relaxation of a MILP (the
``simplex`` backend) must pass ``False``.

The reduced matrices are rebuilt as fresh :class:`SparseMatrix` objects;
explicit zeros of the original pattern are *not* preserved, so a presolved
form is not a target for :class:`repro.optim.backend.SolverSession` patches
(sessions bypass presolve on their warm-started path for exactly this
reason).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.optim import instrumentation as instr
from repro.optim._types import BoolArray, FloatArray, IntArray
from repro.optim.errors import InternalSolverError
from repro.optim.model import StandardForm
from repro.optim.resilience import Deadline
from repro.optim.solution import Solution
from repro.optim.sparse import SparseMatrix

__all__ = ["Postsolve", "ReducedForm", "presolve"]

#: Feasibility tolerance used when a reduction could refute the model.
_FEAS_TOL = 1e-9

#: Minimum improvement before a coefficient is rewritten.
_TIGHTEN_TOL = 1e-7

#: Bound gap under which a variable counts as fixed.
_FIX_TOL = 1e-9

#: Integrality tolerance for rounding integer bounds (matches the
#: branch-and-bound INT_TOL).
_INT_TOL = 1e-6

#: Reduction rounds before presolve stops short of its fixpoint.
_MAX_ROUNDS = 10


@dataclass
class ReducedForm(StandardForm):
    """A :class:`StandardForm` produced by :func:`presolve`.

    Carries the reduction statistics next to the shrunken matrices;
    ``proven_infeasible`` lets the dispatcher short-circuit the solve
    entirely (the matrices are still structurally valid but need not be
    solved).
    """

    rows_removed: int = 0
    cols_fixed: int = 0
    coeffs_tightened: int = 0
    proven_infeasible: bool = False
    infeasible_reason: str = ""


@dataclass
class Postsolve:
    """Maps reduced-space solutions back to the original variable space.

    ``kept_cols[k]`` is the original index of reduced column ``k``;
    ``fixed_values`` holds the presolved value of every eliminated column
    (entries of kept columns are unused).  :meth:`restore` rebuilds the full
    value mapping, recomputes the objective against the *original* form
    (washing out offset bookkeeping) and scatters reduced costs back to
    original indices (eliminated columns report a reduced cost of 0.0 --
    they are not candidates for further fixing).
    """

    original: StandardForm
    kept_cols: IntArray
    fixed_values: FloatArray

    def restore_point(self, x_reduced: FloatArray) -> FloatArray:
        """Lift a reduced-space point into the original variable space."""
        if x_reduced.shape[0] != self.kept_cols.shape[0]:
            raise InternalSolverError(
                f"postsolve expected {self.kept_cols.shape[0]} reduced values, "
                f"got {x_reduced.shape[0]}"
            )
        x = self.fixed_values.copy()
        x[self.kept_cols] = x_reduced
        return x

    def restore(self, solution: Solution) -> Solution:
        """Lift a reduced-space :class:`Solution` to the original space."""
        if not solution.values:
            return solution  # infeasible / unbounded / error: nothing to map
        names = self.original.names
        reduced_names = [names[int(j)] for j in self.kept_cols]
        x_reduced = np.array(
            [solution.values[name] for name in reduced_names], dtype=float
        )
        x = self.restore_point(x_reduced)
        values = {name: float(x[i]) for i, name in enumerate(names)}
        reduced_costs: Optional[FloatArray] = None
        if solution.reduced_costs is not None:
            reduced_costs = np.zeros(len(names))
            reduced_costs[self.kept_cols] = solution.reduced_costs
        return Solution(
            status=solution.status,
            objective=self.original.objective_value(x),
            values=values,
            backend=solution.backend,
            iterations=solution.iterations,
            gap=solution.gap,
            reduced_costs=reduced_costs,
            degradation=solution.degradation,
        )


class _Block:
    """Mutable triplet view of one constraint block during presolve."""

    __slots__ = ("rows", "cols", "vals", "rhs", "alive", "is_eq")

    def __init__(self, matrix: SparseMatrix, rhs: FloatArray, is_eq: bool) -> None:
        vals = matrix.data
        live = (vals != 0.0) & np.isfinite(vals)
        self.rows = matrix.indices[live].astype(np.int64, copy=True)
        self.cols = matrix.col_ids()[live].astype(np.int64, copy=True)
        self.vals = vals[live].astype(float, copy=True)
        self.rhs = rhs.astype(float, copy=True)
        self.alive: BoolArray = np.ones(rhs.shape[0], dtype=bool)
        self.is_eq = is_eq

    @property
    def m(self) -> int:
        """Row count of the block (alive and eliminated rows included)."""
        return int(self.rhs.shape[0])

    def live_entries(self) -> Tuple[IntArray, IntArray, FloatArray, IntArray]:
        """``(rows, cols, vals, positions)`` of entries in still-alive rows."""
        pos = np.flatnonzero(self.alive[self.rows] & (self.vals != 0.0))
        return self.rows[pos], self.cols[pos], self.vals[pos], pos

    def drop_fixed_columns(self, col_mask: BoolArray, values: FloatArray) -> None:
        """Substitute fixed columns into the rhs and drop their entries."""
        sel = col_mask[self.cols]
        if not np.any(sel):
            return
        contrib = np.bincount(
            self.rows[sel], weights=self.vals[sel] * values[self.cols[sel]], minlength=self.m
        )
        self.rhs -= contrib
        keep = ~sel
        self.rows = self.rows[keep]
        self.cols = self.cols[keep]
        self.vals = self.vals[keep]


def _row_activity_range(
    rows: IntArray,
    vals: FloatArray,
    cols: IntArray,
    lb: FloatArray,
    ub: FloatArray,
    m: int,
) -> Tuple[FloatArray, FloatArray]:
    """Per-row min/max of ``a @ x`` over the box ``lb <= x <= ub``.

    Stored zeros contribute nothing (masked out so ``0 * inf`` cannot
    poison a row with NaN); non-finite coefficients are the caller's problem
    (flagged separately by ``nonfinite-matrix``) and are masked too.
    """
    live = (vals != 0.0) & np.isfinite(vals)
    rows, vals, cols = rows[live], vals[live], cols[live]
    with np.errstate(invalid="ignore"):
        lo_c = np.where(vals > 0, vals * lb[cols], vals * ub[cols])
        hi_c = np.where(vals > 0, vals * ub[cols], vals * lb[cols])
    # 0 * inf from a zero-width infinite bound cannot happen (vals != 0), but
    # crossed NaN bounds can still leak NaN; treat those rows as unbounded so
    # this pass stays quiet and the nan-bound rule reports the root cause.
    lo_c = np.nan_to_num(lo_c, nan=-np.inf, posinf=np.inf, neginf=-np.inf)
    hi_c = np.nan_to_num(hi_c, nan=np.inf, posinf=np.inf, neginf=-np.inf)
    lo = np.full(m, 0.0)
    hi = np.full(m, 0.0)
    if rows.size:
        finite_lo = np.where(np.isfinite(lo_c), lo_c, 0.0)
        finite_hi = np.where(np.isfinite(hi_c), hi_c, 0.0)
        lo = np.bincount(rows, weights=finite_lo, minlength=m)
        hi = np.bincount(rows, weights=finite_hi, minlength=m)
        lo[np.bincount(rows, weights=np.isneginf(lo_c).astype(float), minlength=m) > 0] = -np.inf
        hi[np.bincount(rows, weights=np.isposinf(hi_c).astype(float), minlength=m) > 0] = np.inf
    return lo, hi


def _row_signatures(
    rows: IntArray, cols: IntArray, vals: FloatArray
) -> Dict[Tuple[Tuple[int, float], ...], List[Tuple[int, float]]]:
    """Group rows by their direction (pattern + coefficients scaled to the
    leading entry); the value records ``(row, leading coefficient)``."""
    live = (vals != 0.0) & np.isfinite(vals)
    rows, cols, vals = rows[live], cols[live], vals[live]
    groups: Dict[Tuple[Tuple[int, float], ...], List[Tuple[int, float]]] = {}
    if not rows.size:
        return groups
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    boundaries = np.flatnonzero(np.diff(rows)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [rows.size]))
    for s, e in zip(starts, ends):
        lead = float(vals[s])
        key = tuple(
            (int(cols[k]), round(float(vals[k]) / lead, 12)) for k in range(s, e)
        )
        groups.setdefault(key, []).append((int(rows[s]), lead))
    return groups


class _Infeasible(Exception):
    """Presolve refuted the model; carries the human-readable reason."""


def presolve(
    form: StandardForm,
    integer_aware: Optional[bool] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[ReducedForm, Postsolve]:
    """Reduce ``form``; returns the shrunken form and its postsolve mapping.

    ``integer_aware`` enables the reductions that are only valid when the
    solver will enforce integrality (integer bound rounding and coefficient
    tightening); it defaults to whether the form has integer columns.  The
    input form is never mutated.  An expired ``deadline`` stops the fixpoint
    iteration between rounds -- any prefix of presolve rounds yields a valid
    (just less reduced) form, so the solve proper still gets whatever budget
    is left.
    """
    n = form.num_vars
    if integer_aware is None:
        integer_aware = bool(np.any(np.asarray(form.integrality) != 0))
    c = np.asarray(form.c, dtype=float)
    lb = np.array(form.lb, dtype=float)
    ub = np.array(form.ub, dtype=float)
    integ = (np.asarray(form.integrality) != 0) if n else np.zeros(0, dtype=bool)

    ub_block = _Block(form.A_ub, form.b_ub, is_eq=False)
    eq_block = _Block(form.A_eq, form.b_eq, is_eq=True)
    blocks = (ub_block, eq_block)

    fixed = np.zeros(n, dtype=bool)
    fixed_vals = np.zeros(n)
    coeffs_tightened = 0
    reason = ""

    def round_integer_bounds() -> bool:
        """Pull integer-variable bounds to the nearest enclosed integers."""
        changed = False
        fin_lo = integ & ~fixed & np.isfinite(lb)
        fin_hi = integ & ~fixed & np.isfinite(ub)
        new_lo = np.ceil(lb[fin_lo] - _INT_TOL)
        new_hi = np.floor(ub[fin_hi] + _INT_TOL)
        if np.any(new_lo != lb[fin_lo]):
            lb[fin_lo] = new_lo
            changed = True
        if np.any(new_hi != ub[fin_hi]):
            ub[fin_hi] = new_hi
            changed = True
        return changed

    def check_bound_crossings() -> None:
        """Prove infeasibility (or close numerically crossed bounds)."""
        live = ~fixed
        with np.errstate(invalid="ignore"):
            crossed = live & (lb > ub)
        if not np.any(crossed):
            return
        scale = 1.0 + np.abs(np.where(np.isfinite(ub), ub, 0.0))
        hard = crossed & (lb > ub + _FEAS_TOL * scale)
        if np.any(hard):
            j = int(np.flatnonzero(hard)[0])
            raise _Infeasible(
                f"variable {_name(form, j)} has contradictory presolved bounds "
                f"[{lb[j]:g}, {ub[j]:g}]"
            )
        # Sub-tolerance crossings are numerical noise: snap shut.
        lb[crossed] = ub[crossed]

    def fix_narrow_columns() -> bool:
        """Fix variables whose bound window has shrunk to a point."""
        newly = ~fixed & np.isfinite(lb) & np.isfinite(ub) & (ub - lb <= _FIX_TOL)
        if not np.any(newly):
            return False
        value = 0.5 * (lb[newly] + ub[newly])
        if integer_aware:
            which = integ[newly]
            value[which] = np.round(value[which])
        fixed_vals[newly] = value
        fixed[newly] = True
        for block in blocks:
            block.drop_fixed_columns(newly, fixed_vals)
        return True

    def drop_empty_rows(block: _Block) -> bool:
        """Remove rows with no live coefficients (infeasible ones raise)."""
        rows, _, _, _ = block.live_entries()
        counts = np.bincount(rows, minlength=block.m) if rows.size else np.zeros(
            block.m, dtype=np.int64
        )
        empty = block.alive & (counts == 0)
        if not np.any(empty):
            return False
        for i in np.flatnonzero(empty):
            b = float(block.rhs[i])
            tol = _FEAS_TOL * (1.0 + abs(b))
            violated = abs(b) > tol if block.is_eq else b < -tol
            if violated:
                raise _Infeasible(
                    f"empty {'eq' if block.is_eq else 'ub'} row {int(i)} requires "
                    f"0 {'==' if block.is_eq else '<='} {b:g}"
                )
        block.alive[empty] = False
        return True

    def convert_singleton_rows(block: _Block) -> bool:
        """Turn single-coefficient rows into variable bounds and drop them."""
        rows, cols, vals, _ = block.live_entries()
        if not rows.size:
            return False
        counts = np.bincount(rows, minlength=block.m)
        singles = np.flatnonzero(counts[rows] == 1)
        if not singles.size:
            return False
        changed = False
        for k in singles:
            i = int(rows[k])
            if not block.alive[i]:
                continue
            j, a = int(cols[k]), float(vals[k])
            bound = float(block.rhs[i]) / a
            if block.is_eq:
                tol = _FEAS_TOL * (1.0 + abs(bound))
                if bound < lb[j] - tol or bound > ub[j] + tol:
                    raise _Infeasible(
                        f"singleton eq row {i} fixes {_name(form, j)} to {bound:g}, "
                        f"outside its bounds [{lb[j]:g}, {ub[j]:g}]"
                    )
                pinned = min(max(bound, lb[j]), ub[j])
                lb[j] = ub[j] = pinned
            elif a > 0:
                ub[j] = min(ub[j], bound)
            else:
                lb[j] = max(lb[j], bound)
            block.alive[i] = False
            changed = True
        return changed

    def activity_pass(block: _Block) -> bool:
        """Redundant-row removal, infeasibility proofs and forcing rows."""
        rows, cols, vals, _ = block.live_entries()
        lo, hi = _row_activity_range(rows, vals, cols, lb, ub, block.m)
        changed = False
        forcing: List[Tuple[int, bool]] = []  # (row, pin_to_minimum)
        for i in np.flatnonzero(block.alive):
            b = float(block.rhs[i])
            if not math.isfinite(b):
                continue  # the analyzer reports nonfinite rhs; leave the row
            tol = _FEAS_TOL * (1.0 + abs(b))
            if lo[i] > b + tol:
                raise _Infeasible(
                    f"{'eq' if block.is_eq else 'ub'} row {int(i)}: minimum activity "
                    f"{lo[i]:g} exceeds rhs {b:g}"
                )
            if block.is_eq:
                if hi[i] < b - tol:
                    raise _Infeasible(
                        f"eq row {int(i)}: maximum activity {hi[i]:g} cannot reach rhs {b:g}"
                    )
                if math.isfinite(lo[i]) and lo[i] >= b - tol:
                    forcing.append((int(i), True))
                elif math.isfinite(hi[i]) and hi[i] <= b + tol:
                    forcing.append((int(i), False))
            else:
                if math.isfinite(hi[i]) and hi[i] <= b + tol:
                    block.alive[i] = False  # redundant: never binding
                    changed = True
                elif math.isfinite(lo[i]) and lo[i] >= b - tol:
                    forcing.append((int(i), True))
        for i, to_minimum in forcing:
            sel = rows == i
            row_cols = cols[sel]
            row_vals = vals[sel]
            b = float(block.rhs[i])
            tol = _FEAS_TOL * (1.0 + abs(b))
            # Pins applied by earlier forcing rows in this same loop move the
            # bounds, so the classification above may be stale: recompute this
            # row's extreme activity before trusting it.  A row whose minimum
            # activity has *risen past* the rhs is now a proof of
            # infeasibility, not a forcing row.
            if to_minimum:
                act = float(
                    np.sum(np.where(row_vals > 0, row_vals * lb[row_cols], row_vals * ub[row_cols]))
                )
                if not math.isfinite(act):
                    continue  # a pin cannot widen bounds; defensive only
                if act > b + tol:
                    raise _Infeasible(
                        f"{'eq' if block.is_eq else 'ub'} row {int(i)}: minimum activity "
                        f"{act:g} exceeds rhs {b:g} after earlier forcing pins"
                    )
                if act < b - tol:
                    continue  # no longer forcing; revisit next round
            else:
                act = float(
                    np.sum(np.where(row_vals > 0, row_vals * ub[row_cols], row_vals * lb[row_cols]))
                )
                if not math.isfinite(act):
                    continue
                if act < b - tol:
                    raise _Infeasible(
                        f"eq row {int(i)}: maximum activity {act:g} cannot reach rhs "
                        f"{b:g} after earlier forcing pins"
                    )
                if act > b + tol:
                    continue
            for j, a in zip(row_cols, row_vals):
                pin_low = (a > 0) == to_minimum
                if pin_low:
                    ub[int(j)] = lb[int(j)]
                else:
                    lb[int(j)] = ub[int(j)]
            block.alive[i] = False
            changed = True
        return changed

    def dedup_parallel_rows(block: _Block) -> bool:
        """Keep only the tightest of each parallel-row family."""
        rows, cols, vals, _ = block.live_entries()
        if rows.size < 2:
            return False
        changed = False
        for members in _row_signatures(rows, cols, vals).values():
            if len(members) < 2:
                continue
            if block.is_eq:
                scaled = [(i, float(block.rhs[i]) / lead) for i, lead in members]
                first, ref = scaled[0]
                for i, value in scaled[1:]:
                    if abs(value - ref) > _FEAS_TOL * (1.0 + abs(ref)):
                        raise _Infeasible(
                            f"parallel eq rows {first} and {i} have contradictory "
                            f"right-hand sides ({ref:g} vs {value:g} after scaling)"
                        )
                    block.alive[i] = False
                    changed = True
                continue
            for positive in (True, False):
                group = [(i, lead) for i, lead in members if (lead > 0) == positive]
                if len(group) < 2:
                    continue
                scaled = [(i, float(block.rhs[i]) / lead) for i, lead in group]
                # lead > 0: pattern @ x <= rhs/lead, the minimum is tightest;
                # lead < 0: pattern @ x >= rhs/lead, the maximum is tightest.
                pick = min if positive else max
                keep = pick(scaled, key=lambda item: item[1])[0]
                for i, _lead in group:
                    if i != keep:
                        block.alive[i] = False
                        changed = True
        return changed

    def tighten_coefficients() -> bool:
        """Shrink binary-column coefficients of over-wide ``<=`` rows."""
        nonlocal coeffs_tightened
        block = ub_block
        rows, cols, vals, pos = block.live_entries()
        if not rows.size:
            return False
        lo, hi = _row_activity_range(rows, vals, cols, lb, ub, block.m)
        binary = integ & ~fixed & (lb == 0.0) & (ub == 1.0)
        candidate_rows = np.flatnonzero(
            block.alive & np.isfinite(hi) & (hi > block.rhs + _TIGHTEN_TOL)
        )
        if not candidate_rows.size:
            return False
        changed = False
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        starts = np.searchsorted(sorted_rows, candidate_rows, side="left")
        ends = np.searchsorted(sorted_rows, candidate_rows, side="right")
        for i, s, e in zip(candidate_rows, starts, ends):
            activity_max = float(hi[i])
            b = float(block.rhs[i])
            for k in order[s:e]:
                excess = activity_max - b
                if excess <= _TIGHTEN_TOL:
                    break
                j, a = int(cols[k]), float(vals[k])
                if not binary[j] or abs(a) <= excess + _TIGHTEN_TOL:
                    continue
                if a > 0:
                    new_a = excess  # magnitude U - b, rhs moves to U - a
                    b = activity_max - a
                    block.rhs[i] = b
                    activity_max = activity_max - a + new_a
                else:
                    new_a = -excess  # rhs and max activity unchanged
                block.vals[pos[k]] = new_a
                coeffs_tightened += 1
                changed = True
        return changed

    def fix_empty_columns() -> None:
        """Fix columns no live row touches at their cost-optimal bound."""
        touched = np.zeros(n, dtype=bool)
        for block in blocks:
            _, bcols, _, _ = block.live_entries()
            touched[bcols] = True
        for j in np.flatnonzero(~fixed & ~touched):
            c_j = float(c[j])
            if c_j > 0.0:
                target = lb[j] if math.isfinite(lb[j]) else None
            elif c_j < 0.0:
                target = ub[j] if math.isfinite(ub[j]) else None
            elif math.isfinite(lb[j]):
                target = lb[j]
            elif math.isfinite(ub[j]):
                target = ub[j]
            else:
                target = 0.0  # free column with zero cost: any value is optimal
            if target is None:
                continue  # keep the column so the solver reports unboundedness
            fixed[j] = True
            fixed_vals[j] = target

    try:
        for _ in range(_MAX_ROUNDS):
            if deadline is not None and deadline.expired():
                break
            changed = False
            if integer_aware:
                changed |= round_integer_bounds()
            check_bound_crossings()
            changed |= fix_narrow_columns()
            for block in blocks:
                changed |= drop_empty_rows(block)
                changed |= convert_singleton_rows(block)
                changed |= activity_pass(block)
                changed |= dedup_parallel_rows(block)
            if integer_aware:
                changed |= tighten_coefficients()
            if not changed:
                break
        check_bound_crossings()
        fix_empty_columns()
    except _Infeasible as exc:
        reason = str(exc)

    kept_cols = np.flatnonzero(~fixed).astype(np.int64)
    col_remap = np.full(n, -1, dtype=np.int64)
    col_remap[kept_cols] = np.arange(kept_cols.size, dtype=np.int64)

    matrices: List[SparseMatrix] = []
    rhs_arrays: List[FloatArray] = []
    row_remaps: List[IntArray] = []
    for block in blocks:
        kept_rows = np.flatnonzero(block.alive)
        row_remap = np.full(block.m, -1, dtype=np.int64)
        row_remap[kept_rows] = np.arange(kept_rows.size, dtype=np.int64)
        rows, cols, vals, _ = block.live_entries()
        matrices.append(
            SparseMatrix.from_coo(
                row_remap[rows], col_remap[cols], vals, (int(kept_rows.size), int(kept_cols.size))
            )
        )
        rhs_arrays.append(block.rhs[kept_rows])
        row_remaps.append(row_remap)

    new_row_map: Dict[str, Tuple[str, int, float]] = {}
    for name, (kind, row, sign) in form.row_map.items():
        if kind == "dup":
            new_row_map[name] = (kind, row, sign)
            continue
        remap = row_remaps[0] if kind == "ub" else row_remaps[1]
        if 0 <= row < remap.shape[0] and remap[row] >= 0:
            new_row_map[name] = (kind, int(remap[row]), sign)

    rows_removed = int(
        (ub_block.m - int(ub_block.alive.sum())) + (eq_block.m - int(eq_block.alive.sum()))
    )
    cols_fixed = int(fixed.sum())
    offset = form.objective_offset + float(c[fixed] @ fixed_vals[fixed])
    integrality = np.asarray(form.integrality)[kept_cols]
    names = [form.names[int(j)] for j in kept_cols] if form.names else []

    reduced = ReducedForm(
        c=c[kept_cols].copy(),
        A_ub=matrices[0],
        b_ub=rhs_arrays[0],
        A_eq=matrices[1],
        b_eq=rhs_arrays[1],
        lb=lb[kept_cols],
        ub=ub[kept_cols],
        integrality=integrality,
        names=names,
        objective_offset=offset,
        maximize=form.maximize,
        row_map=new_row_map,
        rows_removed=rows_removed,
        cols_fixed=cols_fixed,
        coeffs_tightened=coeffs_tightened,
        proven_infeasible=bool(reason),
        infeasible_reason=reason,
    )
    post = Postsolve(original=form, kept_cols=kept_cols, fixed_values=fixed_vals)
    instr.add("presolve_rows_removed", rows_removed)
    instr.add("presolve_cols_fixed", cols_fixed)
    instr.add("presolve_coeffs_tightened", coeffs_tightened)
    return reduced, post


def _name(form: StandardForm, j: int) -> str:
    if 0 <= j < len(form.names):
        return f"{form.names[j]!r} (col {j})"
    return f"column {j}"
