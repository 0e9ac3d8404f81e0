"""Cutting planes and reduced-cost fixing for the branch-and-bound driver.

The driver runs *cut-and-branch*: cuts are separated at the root only, in a
bounded number of rounds, and appended to ``A_ub`` before the tree search
starts.  (Adding rows mid-tree would invalidate every warm-start basis the
nodes share, which is the whole point of the in-house node path.)  Because
every cut generated here is valid for the full integer hull -- never merely
for a subtree -- the rounding heuristic and root-bound feasibility checks in
:mod:`repro.optim.branch_and_bound` remain sound unchanged.

Three separators are implemented:

* **cover cuts** (:func:`separate_cover_cuts`) -- work on any ``<=`` row
  whose support is all binary.  Negative coefficients are complemented
  (``x -> 1 - x``) into a plain knapsack ``sum(a_i z_i) <= b``; a greedy
  minimal cover ``C`` with ``sum_{C} a_i > b`` yields
  ``sum_{C} z_i <= |C| - 1``, translated back through the complementation.
  These need nothing but the form and the fractional point, so they also run
  when SciPy/HiGHS solves the node LPs.
* **implied cardinality cuts** (:func:`separate_implied_cardinality_cuts`)
  -- the decisive family on the paper's fixed-charge placements.  A
  variable-upper-bound row ``r <= u * y`` (sampling rate ``r`` gated by a
  placement binary ``y``) makes the LP relaxation loose by a factor of
  ``1/rho`` on every demand row ``sum(r) >= rho``: the LP happily opens
  ``y = rho/u``.  Substituting each VUB into the demand row yields a pure
  binary knapsack ``sum(w_k y_k) >= rho`` whose Chvatal-Gomory rounding is
  the cardinality cut ``sum(y_k) >= ceil(rho / max w)`` -- typically
  ``sum(y) >= 1`` per monitored path, or ``sum(y) >= delta_t`` when the
  demand is gated by a coverage indicator.  These are structural (no basis
  needed), so they also run when SciPy/HiGHS solves the node LPs.
* **Gomory mixed-integer cuts** (:func:`separate_gomory_cuts`) -- read off
  the factorized basis of the in-house simplex
  (:class:`repro.optim.simplex.SimplexSolver`).  For a basic integer
  variable with fractional value, one BTRAN recovers the simplex tableau
  row; shifting every nonbasic variable to its resting bound and applying
  the GMI formula gives a cut in the shifted space, which is translated
  back to original variables (slack columns are substituted through their
  defining row).  Rows touching split free-variable columns are skipped --
  such a cut has no exact original-space representation.

:func:`reduced_cost_fixing` implements the standard node-level bound
tightening: with an incumbent of cost ``C`` and a node LP of cost ``z`` and
reduced costs ``d``, a nonbasic integer variable can move at most
``(C - z) / |d_j|`` from its bound in any improving solution, so its
opposite bound is pulled in accordingly before the children are pushed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.optim._types import FloatArray, IntArray
from repro.optim.model import StandardForm
from repro.optim.resilience import Deadline
from repro.optim.simplex import AT_UPPER, BASIC, _Basis, _CanonicalLP
from repro.optim.sparse import SparseMatrix

__all__ = [
    "Cut",
    "append_cut_rows",
    "reduced_cost_fixing",
    "separate_cover_cuts",
    "separate_gomory_cuts",
    "separate_implied_cardinality_cuts",
]

#: Minimum violation (in x-space, against the fractional point) for a cut
#: to be kept.  Matches the branch-and-bound integrality tolerance scale.
_MIN_VIOLATION = 1e-6

#: Source rows whose basic value is closer than this to an integer are not
#: used for Gomory cuts (the resulting cut would be numerically worthless).
_AWAY = 1e-2

#: Coefficients below this magnitude are dropped from a cut, with the
#: right-hand side relaxed by the dropped term's worst case over the box.
_DROP_TOL = 1e-12

#: Maximum dynamic range (max |coef| / min |coef|) accepted in a cut row.
_MAX_DYNAMISM = 1e7

#: Integrality tolerance shared with the branch-and-bound driver.
_INT_TOL = 1e-6


@dataclass
class Cut:
    """One globally-valid cut ``sum(vals * x[cols]) <= rhs`` (original space)."""

    cols: IntArray
    vals: FloatArray
    rhs: float
    kind: str = ""


def _rows_of(matrix: SparseMatrix, m: int) -> List[Tuple[IntArray, FloatArray]]:
    """Per-row ``(cols, vals)`` views of a constraint block."""
    rows, cols, vals = matrix.indices, matrix.col_ids(), matrix.data
    nz = vals != 0.0
    rows, cols, vals = rows[nz], cols[nz], vals[nz]
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    bounds = np.searchsorted(rows, np.arange(m + 1))
    return [(cols[bounds[i] : bounds[i + 1]], vals[bounds[i] : bounds[i + 1]]) for i in range(m)]


def separate_cover_cuts(
    form: StandardForm,
    x: FloatArray,
    max_cuts: int = 20,
    deadline: Optional[Deadline] = None,
) -> List[Cut]:
    """Greedy cover cuts from the all-binary ``<=`` rows of ``form``.

    ``x`` is the fractional point to cut off (original variable order).
    Returns at most ``max_cuts`` cuts, most violated first.  An expired
    ``deadline`` stops the row scan early; whatever was separated so far is
    still valid.
    """
    integrality = np.asarray(form.integrality) != 0
    binary = integrality & (np.asarray(form.lb) == 0.0) & (np.asarray(form.ub) == 1.0)
    m_ub = int(form.b_ub.shape[0])
    found: List[Tuple[float, Cut]] = []
    for i, (cols, vals) in enumerate(_rows_of(form.A_ub, m_ub)):
        if deadline is not None and i % 64 == 0 and deadline.expired():
            break
        if cols.size < 2 or not np.all(binary[cols]):
            continue
        b = float(form.b_ub[i])
        # Complement negative coefficients: z = x for a > 0, z = 1 - x for
        # a < 0, giving the knapsack  sum(abar * z) <= bbar with abar > 0.
        neg = vals < 0.0
        abar = np.abs(vals)
        bbar = b - float(vals[neg].sum())
        if bbar < 0.0 or float(abar.sum()) <= bbar + _INT_TOL:
            continue  # infeasible row is presolve's business; no cover otherwise
        z = np.where(neg, 1.0 - x[cols], x[cols])
        # Greedy minimal cover: bring in the items whose exclusion cost
        # (1 - z*) per unit of weight is smallest until the weight exceeds b.
        order = np.argsort((1.0 - z) / abar, kind="stable")
        weight = 0.0
        chosen: List[int] = []
        for k in order:
            chosen.append(int(k))
            weight += float(abar[k])
            if weight > bbar + _INT_TOL:
                break
        if weight <= bbar + _INT_TOL:
            continue
        sel = np.array(chosen, dtype=np.int64)
        violation = float((1.0 - z[sel]).sum())
        if violation >= 1.0 - _MIN_VIOLATION:
            continue  # sum(z) <= |C| - 1 not violated by x
        # Translate sum_{C} z <= |C| - 1 back through the complementation.
        cut_cols = cols[sel]
        cut_vals = np.where(neg[sel], -1.0, 1.0)
        rhs = float(len(chosen) - 1 - int(np.count_nonzero(neg[sel])))
        found.append((1.0 - violation, Cut(cut_cols.copy(), cut_vals, rhs, kind="cover")))
    found.sort(key=lambda item: -item[0])
    return [cut for _, cut in found[:max_cuts]]


def separate_implied_cardinality_cuts(
    form: StandardForm,
    x: FloatArray,
    max_cuts: int = 60,
    deadline: Optional[Deadline] = None,
) -> List[Cut]:
    """Cardinality cuts from variable-upper-bound substitution + CG rounding.

    Step 1 collects VUB relations ``r_j <= u_j * y_j`` from the two-nonzero
    rows ``a * r - g * y <= 0`` (``r`` continuous, ``y`` binary).  Step 2
    relaxes every other row to binary space: a continuous variable with a
    negative coefficient is replaced through its VUB (or its finite upper
    bound, as a constant), one with a positive coefficient contributes its
    finite lower bound, leaving a valid pure-binary inequality
    ``sum(w_k y_k) <= b'``.  Splitting suppliers (``w_k < 0``) from demanders
    (``w_k > 0``) and dividing by the largest supplier weight ``W`` gives,
    after integer rounding, for each demander ``delta`` (others relaxed to
    zero, which only weakens the requirement):

        ``sum_{suppliers} y  >=  k0 + (k1 - k0) * delta``

    with ``k0 = ceil(-b'/W)`` and ``k1 = ceil((-b' + w_delta)/W)``.  Both
    the base cut (``k0 >= 1``) and the per-demander lift are valid for every
    integer point, independent of the LP -- the strength over the LP
    relaxation is exactly the ceiling.  Returns at most ``max_cuts`` cuts
    violated by ``x``, most violated first.
    """
    integrality = np.asarray(form.integrality) != 0
    lb = np.asarray(form.lb, dtype=float)
    ub = np.asarray(form.ub, dtype=float)
    binary = integrality & (lb == 0.0) & (ub == 1.0)
    m_ub = int(form.b_ub.shape[0])
    rows = _rows_of(form.A_ub, m_ub)

    # Step 1: VUB map, continuous column -> (binary column, tightest u).
    vub: Dict[int, Tuple[int, float]] = {}
    for i, (cols, vals) in enumerate(rows):
        if cols.size != 2 or abs(float(form.b_ub[i])) > _DROP_TOL:
            continue
        for a, b_ in ((0, 1), (1, 0)):
            j, y = int(cols[a]), int(cols[b_])
            a_j, g_y = float(vals[a]), float(vals[b_])
            if integrality[j] or not binary[y] or a_j <= 0.0 or g_y >= 0.0:
                continue
            u = -g_y / a_j
            if math.isfinite(ub[j]):
                u = min(u, float(ub[j]))
            if j not in vub or u < vub[j][1]:
                vub[j] = (y, u)
            break

    found: List[Tuple[float, Cut]] = []
    seen: Set[Tuple[Tuple[int, ...], Tuple[float, ...], float]] = set()
    for i, (cols, vals) in enumerate(rows):
        if deadline is not None and i % 64 == 0 and deadline.expired():
            break
        b = float(form.b_ub[i])
        weights: Dict[int, float] = {}
        usable = True
        for j_raw, a in zip(cols, vals):
            j, a_j = int(j_raw), float(a)
            if integrality[j]:
                if not binary[j]:
                    usable = False
                    break
                weights[j] = weights.get(j, 0.0) + a_j
            elif a_j < 0.0:
                if j in vub:
                    y, u = vub[j]
                    weights[y] = weights.get(y, 0.0) + a_j * u
                elif math.isfinite(ub[j]):
                    b -= a_j * float(ub[j])
                else:
                    usable = False
                    break
            else:
                if not math.isfinite(lb[j]):
                    usable = False
                    break
                b -= a_j * float(lb[j])
        if not usable:
            continue
        suppliers = np.array(sorted(k for k, w in weights.items() if w < -_DROP_TOL), dtype=np.int64)
        if suppliers.size == 0:
            continue
        big_w = max(-weights[int(k)] for k in suppliers)
        need0 = -b / big_w
        k0 = int(math.ceil(need0 - _INT_TOL))
        supplier_lp = float(np.sum(x[suppliers]))
        candidates: List[Tuple[int, int]] = [(-1, max(k0, 0))]  # (demander, k1)
        for k, w in weights.items():
            if w > _DROP_TOL:
                candidates.append((k, int(math.ceil((-b + w) / big_w - _INT_TOL))))
        for delta, k1 in candidates:
            base = max(k0, 0)
            if delta < 0:
                if base < 1:
                    continue
                cut_cols = suppliers
                cut_vals = np.full(suppliers.size, -1.0)
                rhs = -float(base)
                violation = float(base) - supplier_lp
            else:
                if k1 <= base:
                    continue
                lift = float(k1 - base) * float(x[delta])
                cut_cols = np.concatenate([suppliers, [delta]])
                cut_vals = np.concatenate([np.full(suppliers.size, -1.0), [float(k1 - base)]])
                rhs = -float(base)
                violation = float(base) + lift - supplier_lp
            if violation < _MIN_VIOLATION:
                continue
            key = (tuple(int(c) for c in cut_cols), tuple(float(v) for v in cut_vals), rhs)
            if key in seen:
                continue
            seen.add(key)
            found.append(
                (violation, Cut(cut_cols.astype(np.int64), cut_vals.astype(float), rhs, kind="implied-card"))
            )
    found.sort(key=lambda item: -item[0])
    return [cut for _, cut in found[:max_cuts]]


def separate_gomory_cuts(
    lp: _CanonicalLP,
    token: _Basis,
    form: StandardForm,
    x: FloatArray,
    max_cuts: int = 20,
    deadline: Optional[Deadline] = None,
) -> List[Cut]:
    """Gomory mixed-integer cuts read off a factorized optimal basis.

    ``lp`` / ``token`` are the canonical LP and basis returned by the
    in-house :class:`~repro.optim.simplex.SimplexSolver` for the *current*
    ``form``; ``x`` is the (fractional) optimal point in original variable
    order.  Returns at most ``max_cuts`` cuts in original variable space.
    """
    if token.factor is None or token.factor.stamp != lp.stamp:
        return []
    m, n_cols = lp.m, lp.n
    n_exp = n_cols - lp.n_ub
    vstat = token.vstat[:n_cols]

    # Column metadata: originating variable, integrality, free-split parts.
    col_var = np.full(n_cols, -1, dtype=np.int64)
    col_var[lp.plus_index] = np.arange(lp.n_original, dtype=np.int64)
    integrality = np.asarray(form.integrality) != 0
    col_is_int = np.zeros(n_cols, dtype=bool)
    col_is_int[lp.plus_index] = integrality & ~lp.free_mask
    split_col = np.zeros(n_cols, dtype=bool)
    has_minus = lp.minus_index >= 0
    split_col[lp.plus_index[has_minus]] = True
    split_col[lp.minus_index[has_minus]] = True

    # Source rows: basic plus-columns of non-free integer variables whose
    # value sits far enough from the integer lattice, best fractionality
    # first.
    basic_cols = token.basis
    candidates: List[Tuple[float, int]] = []
    for r in range(m):
        k = int(basic_cols[r])
        if k >= n_cols or not col_is_int[k]:
            continue
        value = float(x[col_var[k]])
        f0 = value - math.floor(value)
        if min(f0, 1.0 - f0) > _AWAY:
            candidates.append((abs(f0 - 0.5), r))
    candidates.sort()

    ub_rows = _rows_of(form.A_ub, int(form.b_ub.shape[0]))
    cuts: List[Cut] = []
    for _, r in candidates:
        if len(cuts) >= max_cuts:
            break
        if deadline is not None and deadline.expired():
            break
        k = int(basic_cols[r])
        beta = float(x[col_var[k]])
        f0 = beta - math.floor(beta)

        e_r = np.zeros(m)
        e_r[r] = 1.0
        rho = token.factor.btran(e_r)
        alpha = lp.A.rmatvec(rho)

        # Shifted-space cut sum(gamma_j * t_j) >= 1 over the nonbasic
        # columns, t_j >= 0 measuring the distance from the resting bound.
        pi = np.zeros(lp.n_original)
        const = 0.0
        drop_slack = 0.0
        representable = True
        nonbasic = np.flatnonzero(
            (vstat != BASIC) & (np.abs(alpha) > _DROP_TOL) & (lp.lower != lp.upper)
        )
        for j in nonbasic:
            at_upper = vstat[j] == AT_UPPER
            a_j = -float(alpha[j]) if at_upper else float(alpha[j])
            rest = float(lp.upper[j]) if at_upper else float(lp.lower[j])
            if col_is_int[j] and abs(rest - round(rest)) <= _INT_TOL:
                f_j = a_j - math.floor(a_j)
                gamma = f_j / f0 if f_j <= f0 else (1.0 - f_j) / (1.0 - f0)
            elif a_j > 0.0:
                gamma = a_j / f0
            else:
                gamma = -a_j / (1.0 - f0)
            if gamma <= _DROP_TOL:
                # Dropping gamma * t_j (t_j in [0, span]) weakens the >= 1
                # side by at most gamma * span; account for it exactly and
                # refuse when the span is unbounded.
                span = float(lp.upper[j] - lp.lower[j])
                if not math.isfinite(span):
                    if gamma > 0.0:
                        representable = False
                        break
                    continue
                drop_slack += gamma * span
                continue
            if split_col[j]:
                representable = False  # no x-space image for a free split part
                break
            if j >= n_exp:  # slack of ub row i: t_j = b_i - a_i . x
                i = j - n_exp
                scols, svals = ub_rows[i]
                const += gamma * float(form.b_ub[i])
                np.subtract.at(pi, scols, gamma * svals)
            elif at_upper:  # t_j = ub_v - x_v
                v = int(col_var[j])
                const += gamma * rest
                pi[v] -= gamma
            else:  # t_j = x_v - lb_v
                v = int(col_var[j])
                const -= gamma * rest
                pi[v] += gamma
        if not representable:
            continue

        # x-space:  const + pi . x >= 1 - drop_slack   =>   -pi . x <= const - 1 + drop_slack
        cut_cols = np.flatnonzero(np.abs(pi) > _DROP_TOL)
        if cut_cols.size == 0:
            continue
        cut_vals = -pi[cut_cols]
        rhs = const - 1.0 + drop_slack
        magnitudes = np.abs(cut_vals)
        if float(magnitudes.max()) / float(magnitudes.min()) > _MAX_DYNAMISM:
            continue
        violation = float(cut_vals @ x[cut_cols]) - rhs
        if violation < _MIN_VIOLATION:
            continue
        cuts.append(Cut(cut_cols.astype(np.int64), cut_vals, rhs, kind="gomory"))
    return cuts


def append_cut_rows(form: StandardForm, cuts: List[Cut]) -> StandardForm:
    """A new :class:`StandardForm` with ``cuts`` appended to the ``<=`` block.

    The original form is not mutated; existing row indices (and therefore
    ``row_map``) stay valid because cut rows are appended at the end.
    """
    if not cuts:
        return form
    n = form.num_vars
    m_ub = int(form.b_ub.shape[0])
    rows, cols, vals = form.A_ub.indices, form.A_ub.col_ids(), form.A_ub.data
    new_rows = [np.asarray(rows, dtype=np.int64)]
    new_cols = [np.asarray(cols, dtype=np.int64)]
    new_vals = [np.asarray(vals, dtype=float)]
    rhs = [np.asarray(form.b_ub, dtype=float)]
    for offset, cut in enumerate(cuts):
        new_rows.append(np.full(cut.cols.shape[0], m_ub + offset, dtype=np.int64))
        new_cols.append(cut.cols.astype(np.int64))
        new_vals.append(cut.vals.astype(float))
        rhs.append(np.array([cut.rhs]))
    A_ub = SparseMatrix.from_coo(
        np.concatenate(new_rows),
        np.concatenate(new_cols),
        np.concatenate(new_vals),
        (m_ub + len(cuts), n),
    )
    return StandardForm(
        c=form.c,
        A_ub=A_ub,
        b_ub=np.concatenate(rhs),
        A_eq=form.A_eq,
        b_eq=form.b_eq,
        lb=form.lb,
        ub=form.ub,
        integrality=form.integrality,
        names=form.names,
        objective_offset=form.objective_offset,
        maximize=form.maximize,
        row_map=dict(form.row_map),
    )


def reduced_cost_fixing(
    x: FloatArray,
    reduced_costs: Optional[FloatArray],
    lb: FloatArray,
    ub: FloatArray,
    integrality: np.ndarray,
    slack: float,
) -> Tuple[FloatArray, FloatArray, int]:
    """Tighten integer bounds from an optimal node LP's reduced costs.

    ``slack`` is ``cutoff - node_cost`` in the minimization sense (how much
    the objective may still grow while beating the incumbent).  A nonbasic
    integer variable at its lower bound with reduced cost ``d > 0`` can rise
    by at most ``slack / d``; symmetrically at the upper bound.  Returns the
    (possibly shared) bound arrays and the number of bounds moved; the
    inputs are only copied when something tightens.
    """
    if reduced_costs is None or not math.isfinite(slack) or slack < 0.0:
        return lb, ub, 0
    d = np.asarray(reduced_costs, dtype=float)
    integral = np.asarray(integrality) != 0
    at_lower = integral & (np.abs(x - lb) <= _INT_TOL) & (d > _MIN_VIOLATION)
    at_upper = integral & (np.abs(x - ub) <= _INT_TOL) & (d < -_MIN_VIOLATION)
    fixed = 0
    new_lb, new_ub = lb, ub
    for j in np.flatnonzero(at_lower):
        allowance = math.floor(slack / d[j] + _INT_TOL)
        ceiling = lb[j] + allowance
        if ceiling < ub[j] - _INT_TOL:
            if new_ub is ub:
                new_ub = ub.copy()
            new_ub[j] = ceiling
            fixed += 1
    for j in np.flatnonzero(at_upper):
        allowance = math.floor(slack / -d[j] + _INT_TOL)
        floor_val = ub[j] - allowance
        if floor_val > lb[j] + _INT_TOL:
            if new_lb is lb:
                new_lb = lb.copy()
            new_lb[j] = floor_val
            fixed += 1
    return new_lb, new_ub, fixed
