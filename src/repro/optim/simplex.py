"""Sparse revised simplex with a factorized, incrementally-updated basis.

This module replaces the PR 1 dense-tableau simplex.  The solver operates on
a *bounded-variable* canonical form built from the sparse
:class:`repro.optim.model.StandardForm`:

``min c @ y`` s.t. ``A @ y == b`` and ``lower <= y <= upper``

where ``A`` is a :class:`repro.optim.sparse.SparseMatrix` (CSC) assembled
once per structure -- original columns (free variables split into two
non-negative parts) plus one slack column per inequality row.  Variable
bounds are handled *implicitly* by the simplex (non-basic variables rest at
a finite bound), so no bound rows are materialized and branch-and-bound
node bounds are pure data changes against a shared canonical structure.

Instead of a dense tableau the solver keeps only the basis factorized:

* an LU factorization of the basis matrix ``B`` (SuperLU via
  ``scipy.sparse.linalg.splu`` for larger bases when SciPy is importable, a
  dense LAPACK inverse otherwise),
* a Forrest-Tomlin-style *sparse spike* file of the pivots applied since
  the last factorization: each update stores only the nonzero entries of
  the transformed entering column, so FTRAN/BTRAN pay O(nnz-of-spike) per
  update instead of the O(m) dense product-form eta application,
* adaptive refactorization, triggered by either an update-count cap or an
  accumulated spike-nonzero budget, which also recomputes the basic values
  to wash out drift.

Per iteration the work is two triangular solves against the factorization
(FTRAN/BTRAN), one sparse pricing pass and an O(m) state update -- never
the O(m*n) full-tableau pivot of the previous implementation.  A dual
iteration adds at most one FTRAN, for all of its bound flips together, and
on large LPs builds its pivot row from the nonzero rows of ``B^-T e_r``
only.

The primal entering rule follows the LP's size.  Below
:data:`_DEVEX_MIN_COLS` canonical columns Dantzig's rule prices every
column per iteration; from there on the solver runs reference-framework
devex pricing with *partial pricing* (cyclic candidate scans over
contiguous column blocks, priced with
:meth:`repro.optim.sparse.SparseMatrix.rmatvec_range`), approximating
steepest-edge at a fraction of the cost on Rocketfuel-size bases.
Either way the solver switches to Bland's smallest-index rule after
:data:`_STALL_LIMIT` consecutive degenerate pivots -- the anti-cycling
escape stays the last rung regardless of pricing rule -- and a stall that
survives even Bland (:data:`_STALL_ABORT` consecutive zero-step pivots, the
signature of *primal* degeneracy, which no pricing or cost perturbation can
cure) aborts with :class:`_DegenerateStall` so the recovery ladder's
bound-shift rung can resolve it on slightly expanded bounds.  The size rule
steers only this primal rule; the dual warm-repair loop picks its leaving
row by devex *row* weights carried in the basis token, and its entering
column by a full bounded ratio test (partial pricing is unsound there:
dual feasibility needs every eligible column scanned).

Warm starts (branch-and-bound children, parameterized re-solves) restore
the parent's basis *and* non-basic bound statuses, refactorize once, and
repair primal feasibility with a bounded-variable dual simplex; when the
basis is already primal feasible phase 1 is skipped outright.  A basis that
is dual infeasible as well (a re-solve that patched both right-hand sides
and costs) is repaired on *shifted* costs, which zero its wrong-signed
reduced costs, and phase 2 then finishes on the true costs; so a warm start
falls back to a cold solve only when the repair stalls or the basis is
numerically unusable.  :func:`resolve_appended` carries a basis across
appended columns and rows (column-generation masters, root cut rounds).
A large LP without equality rows cold-starts the same way from the all-slack
basis (:data:`_SLACK_START_MIN_COLS`); other cold solves run the primal ladder.

Options honored (see :func:`repro.optim.backend.solve_model`):

===============  ==========================================================
``max_iter``     Iteration limit applied to each simplex phase.
warm start       Via :meth:`SimplexSolver.solve` ``warm_basis=``; a basis
                 returned by a previous solve is re-factorized and repaired
                 with dual simplex pivots (or resumed directly when still
                 primal feasible).
===============  ==========================================================

Solver activity (pivots, factorizations, canonicalizations, peak stored
nonzeros) is reported through :mod:`repro.optim.instrumentation`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.optim import faultinject
from repro.optim import instrumentation as instr
from repro.optim.errors import InternalSolverError, SolverError
from repro.optim.model import StandardForm
from repro.optim.resilience import Deadline, record_rung
from repro.optim.solution import Solution, SolveStatus
from repro.optim.sparse import SparseMatrix

#: Numerical tolerance used throughout the simplex implementation.
EPS = 1e-9

#: Tolerance under which a warm-start basic solution is accepted as feasible.
_WARM_FEAS_TOL = 1e-7

#: Sum of artificial values above which phase 1 declares infeasibility.
_PHASE1_TOL = 1e-7

#: Number of consecutive non-improving (degenerate) pivots after which the
#: pricing rule falls back from Dantzig to Bland's anti-cycling rule.
_STALL_LIMIT = 32

#: Number of consecutive degenerate pivots after which the primal loop gives
#: up on walking the degenerate path (even under Bland's rule) and raises
#: :class:`_DegenerateStall` so the recovery ladder can shift bounds instead.
_STALL_ABORT = 2048

#: Column count from which a cold primal solve starts on shifted bounds
#: proactively (solve the expanded LP, restore the true bounds, repair with
#: warm-start dual pivots) instead of waiting for a degenerate stall to
#: trigger the same machinery as a recovery rung.  Large placement LPs are
#: massively primal degenerate (the Rocketfuel root LP takes 29,422 primal
#: pivots without it, 9,988 with it); they reach the primal path with
#: equality rows, or when a warm or all-slack start falls back.
_SHIFT_PROACTIVE_COLS = 600

#: Column count from which a cold solve of an LP without equality rows
#: starts from the all-slack basis (dual feasible when ``c >= 0``).  With no
#: threshold the pop10 LPs (101-343 columns) reach other root bases: the
#: pop10-drift benchmark's wall time rose 13% and the Figure 7 sweep's trees
#: grew from 290 to 340 nodes.  No LP of 344-1,305 columns was measured; the
#: value is :data:`_DEVEX_MIN_COLS`'s.
_SLACK_START_MIN_COLS = 600

#: Small-basis floor of the spike-count cap: a basis with ``2 * m`` below
#: this still carries this many updates before refactorizing (see
#: :meth:`_BasisFactor.needs_refactor`).
_REFACTOR_INTERVAL = 16

#: Hard cap on Forrest-Tomlin spike updates between refactorizations.  A
#: spike costs only O(nnz-of-spike), so large bases can profitably carry
#: many updates; small bases stay on a 2m cap (refactorization is nearly
#: free there), see :meth:`_BasisFactor.needs_refactor`.
_FT_MAX_UPDATES = 48

#: Spike-file nonzero budget: refactorize once the accumulated spike
#: nonzeros exceed ``_FT_NNZ_PER_ROW * m + _FT_NNZ_BASE`` -- the point
#: where applying the spike file starts rivaling a fresh factorization
#: (48 updates / 12 nnz-per-row measured best on the synthetic-Rocketfuel
#: root relaxations, m ~ 800-1000).
_FT_NNZ_PER_ROW = 12
_FT_NNZ_BASE = 128

#: Entries below this magnitude are dropped when a transformed entering
#: column is compressed into a spike (they are numerical noise relative to
#: EPS-sized pivot tolerances and only inflate the spike file).
_SPIKE_DROP_TOL = 1e-12

#: Below this basis dimension a dense LAPACK factorization beats SuperLU's
#: setup overhead even when SciPy is importable.
_SPLU_MIN_DIM = 60

#: Deadline expiry is checked every this many simplex iterations; a check is
#: one monotonic-clock read, so a small stride keeps overrun bounded without
#: showing up in pivot-loop profiles.
_DEADLINE_STRIDE = 32

#: The primal loop prices with devex at or above this many canonical
#: columns; below it a full Dantzig sweep is one cheap vector op and the
#: devex bookkeeping does not pay for itself.  Aligned with
#: :data:`_SHIFT_PROACTIVE_COLS`: from this size on the placement LPs are
#: degenerate enough that Dantzig's fixed most-negative rule stalls where
#: the devex reference framework prices out of the degenerate cone.
_DEVEX_MIN_COLS = 600

#: Column-block width of the partial-pricing candidate scans.
_PARTIAL_BLOCK = 512

#: Devex reference weights are reset to 1.0 once any weight exceeds this
#: (the reference framework has drifted too far to steer well).
_DEVEX_RESET_LIMIT = 1e7


try:  # pragma: no cover - exercised implicitly via _BasisFactor
    from scipy.sparse import csc_matrix as _scipy_csc
    from scipy.sparse.linalg import splu as _scipy_splu

    _HAVE_SPLU = True
except ImportError:  # pragma: no cover - numpy-only environment
    _HAVE_SPLU = False

#: Non-basic-at-lower-bound / non-basic-at-upper-bound / basic statuses.
AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


#: Monotonic stamp distinguishing canonical lowerings; a stored basis
#: factorization is only reusable against the exact matrix data (stamp) it
#: was computed from.
_lowering_stamp = itertools.count(1)


@dataclass
class _CanonicalLP:
    """Bounded-variable canonical LP sharing one sparse structure.

    ``recover`` maps a canonical solution vector back to the original
    variable space (merging the split parts of free variables).  The
    structure (column layout, sparsity pattern) depends only on the matrix
    pattern and on *which* variables are free -- per-node bound values are
    patched in place through :meth:`set_bounds`, and the form's matrix
    values through :meth:`regather` while its pattern is unchanged.
    ``source`` and ``negated`` are the structure map: canonical entry ``k``
    holds entry ``source[k]`` of the form's ``A_ub.data``, ``A_eq.data``
    and a trailing slack ``1.0``, concatenated, negated where ``negated[k]``
    (the minus part of a split free column).
    """

    c: np.ndarray
    A: SparseMatrix
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    plus_index: np.ndarray
    minus_index: np.ndarray
    free_mask: np.ndarray
    n_original: int
    n_ub: int
    source: np.ndarray
    negated: np.ndarray
    stamp: int = 0

    @property
    def m(self) -> int:
        """Canonical row count."""
        return self.A.shape[0]

    @property
    def n(self) -> int:
        """Canonical column count (structural + slack, artificials excluded)."""
        return self.A.shape[1]

    def recover(self, y: np.ndarray) -> np.ndarray:
        """Map a canonical point back to the original variable space."""
        x = y[self.plus_index].astype(float, copy=True)
        split = self.minus_index >= 0
        if np.any(split):
            x[split] -= y[self.minus_index[split]]
        return x

    def set_bounds(self, lb: np.ndarray, ub: np.ndarray) -> None:
        """Patch per-variable bounds into the canonical columns in place."""
        bounded = ~self.free_mask
        cols = self.plus_index[bounded]
        self.lower[cols] = lb[bounded]
        self.upper[cols] = ub[bounded]

    def regather(self, form: StandardForm) -> None:
        """Re-read ``form``'s matrix values, whose pattern this LP was lowered from.

        The values land in ``A.data`` through the structure map, bit for bit
        what a fresh :func:`_canonicalize` of ``form`` would store; the new
        stamp keeps any factorization of the old values from being resumed.
        """
        pool = np.concatenate((form.A_ub.data, form.A_eq.data, [1.0]))
        np.take(pool, self.source, out=self.A.data)
        np.negative(self.A.data, out=self.A.data, where=self.negated)
        self.stamp = next(_lowering_stamp)


@dataclass
class _Basis:
    """Opaque warm-start token: basis columns plus non-basic bound statuses.

    Basis entries ``>= n_cols`` denote phase-1 artificial variables left
    basic at value zero by a redundant row; ``art_sign`` records the unit
    column sign they were created with so the basis matrix can be rebuilt.
    ``factor`` carries the factorization that was current at optimality;
    warm starts clone it (sharing the immutable LU base, copying the update
    file) instead of refactorizing, so a branch-and-bound child pays zero
    factorizations until its own update file fills up.  ``row_weights``,
    the dual loop's devex row weights (``None``: all 1), is copied likewise.
    """

    basis: np.ndarray  # column index of each basic variable, length m
    vstat: np.ndarray  # status of every column (structural + artificial)
    art_sign: np.ndarray
    n_rows: int
    n_cols: int
    free_mask: np.ndarray
    factor: Optional["_BasisFactor"] = None
    row_weights: Optional[np.ndarray] = None


#: A warm-start basis paired with the canonical LP it is a basis of: what
#: :func:`resolve_appended` needs to carry the basis across an append.
WarmStart = Tuple[_Basis, _CanonicalLP]


def _slack_basis(lp: _CanonicalLP) -> _Basis:
    """The all-slack basis of an LP without equality rows, as a warm token."""
    slacks = np.arange(lp.n - lp.m, lp.n, dtype=np.int64)
    vstat = np.full(lp.n + lp.m, AT_LOWER, dtype=np.int8)
    vstat[: lp.n] = np.where(np.isfinite(lp.lower), AT_LOWER, AT_UPPER)
    vstat[slacks] = BASIC
    return _Basis(slacks, vstat, np.ones(lp.m), lp.m, lp.n, lp.free_mask.copy())


def _basis_compatible(basis: _Basis, lp: _CanonicalLP) -> bool:
    return (
        basis.n_rows == lp.m
        and basis.n_cols == lp.n
        and basis.basis.size == lp.m
        and np.array_equal(basis.free_mask, lp.free_mask)
    )


def _canonicalize(
    form: StandardForm,
    lb: Optional[np.ndarray] = None,
    ub: Optional[np.ndarray] = None,
) -> _CanonicalLP:
    """Lower a :class:`StandardForm` into bounded-variable canonical form.

    Free variables (no finite bound on either side) are split into a
    difference of two non-negative columns; every inequality row gets a
    slack column; bounds stay implicit.  ``lb`` / ``ub`` override the form's
    own bounds (used by branch and bound for node subproblems).
    """
    instr.add("canonicalizations")
    n = form.num_vars
    lb = form.lb if lb is None else np.asarray(lb, dtype=float)
    ub = form.ub if ub is None else np.asarray(ub, dtype=float)
    free = np.isneginf(lb) & np.isposinf(ub)

    width = np.ones(n, dtype=np.int64)
    width[free] = 2
    plus_index = np.concatenate(([0], np.cumsum(width)[:-1])).astype(np.int64)
    minus_index = np.where(free, plus_index + 1, -1)
    n_exp = int(width.sum())

    A_ub, A_eq = form.A_ub, form.A_eq
    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    n_cols = n_exp + m_ub

    # Every canonical entry is one form entry (a split column's minus part
    # negated) or a slack 1.0, so the entries are gathered from a pool of
    # the form's values through the structure map (source, negated).
    rows: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    cols: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    srcs: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    negs: List[np.ndarray] = [np.empty(0, dtype=bool)]
    for block, offset, first in ((A_ub, 0, 0), (A_eq, m_ub, A_ub.nnz)):
        if block.nnz:
            cid = block.col_ids()
            entry = np.arange(first, first + block.nnz, dtype=np.int64)
            rows.append(block.indices + offset)
            cols.append(plus_index[cid])
            srcs.append(entry)
            negs.append(np.zeros(block.nnz, dtype=bool))
            split = free[cid]
            if split.any():
                rows.append(block.indices[split] + offset)
                cols.append(minus_index[cid[split]])
                srcs.append(entry[split])
                negs.append(np.ones(int(split.sum()), dtype=bool))
    if m_ub:
        slack_rows = np.arange(m_ub, dtype=np.int64)
        rows.append(slack_rows)
        cols.append(n_exp + slack_rows)
        srcs.append(np.full(m_ub, A_ub.nnz + A_eq.nnz, dtype=np.int64))
        negs.append(np.zeros(m_ub, dtype=bool))
    row_all, col_all = np.concatenate(rows), np.concatenate(cols)
    # Column-major, rows ascending within a column; no position repeats.
    order = np.lexsort((row_all, col_all))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(col_all, minlength=n_cols))))
    source, negated = np.concatenate(srcs)[order], np.concatenate(negs)[order]
    A = SparseMatrix((m, n_cols), indptr, row_all[order], np.empty(order.size))

    c = np.zeros(n_cols)
    c[plus_index] = form.c
    if free.any():
        c[minus_index[free]] = -form.c[free]

    lower = np.zeros(n_cols)
    upper = np.full(n_cols, np.inf)
    bounded = ~free
    lower[plus_index[bounded]] = lb[bounded]
    upper[plus_index[bounded]] = ub[bounded]

    instr.record_max("peak_nnz", A.nnz)
    lp = _CanonicalLP(
        c=c,
        A=A,
        b=np.concatenate((form.b_ub, form.b_eq)),
        lower=lower,
        upper=upper,
        plus_index=plus_index,
        minus_index=minus_index,
        free_mask=free,
        n_original=n,
        n_ub=m_ub,
        source=source,
        negated=negated,
    )
    lp.regather(form)
    return lp


class _NumericalTrouble(Exception):
    """Base of recoverable numerical failures inside the simplex.

    :meth:`SimplexSolver.solve` catches this hierarchy and walks the
    recovery ladder (refactorize, for a warm start that resumed a stored
    factor -> cost perturbation -> bound shift -> Bland pricing) instead of
    surfacing an :class:`InternalSolverError`.  No rung repeats an earlier
    computation: the solves are deterministic, so a repeat would fail the
    same way.
    """


class _SingularBasis(_NumericalTrouble):
    """The selected basis matrix is numerically singular."""


class _NonFinitePivot(_NumericalTrouble):
    """A pivot column or dual row came back with NaN/Inf entries."""


class _DegenerateStall(_NumericalTrouble):
    """The primal loop made :data:`_STALL_ABORT` zero-step pivots in a row.

    Bland's rule guarantees *finite* termination, not fast termination: on
    massively primal-degenerate LPs (covering rows, duplicated constraints)
    the degenerate path out of a vertex can run to hundreds of thousands of
    pivots.  Escalating to the recovery ladder's bound-shift rung -- which
    perturbs the *bounds*, the actual source of zero-length steps -- is
    orders of magnitude cheaper than grinding through it.
    """


class _BasisFactor:
    """LU factorization of the basis plus a Forrest-Tomlin spike file.

    ``ftran`` solves ``B x = rhs`` and ``btran`` solves ``B^T y = rhs``;
    both first go through the LU factors of the basis as of the last
    (re)factorization, then through the basis updates recorded since.

    Updates are stored as *sparse spikes*: the pivot row, the pivot value
    and the compressed nonzeros of the transformed entering column (the
    permutation bookkeeping is implicit -- the pivot row index plays the
    role of Forrest-Tomlin's row permutation, exactly as in the dense
    product form, so applying a spike is O(nnz-of-spike) instead of O(m)).
    """

    __slots__ = (
        "m",
        "stamp",
        "_spikes",
        "_spike_nnz",
        "_splu",
        "_inv",
        "_base_nnz",
    )

    def __init__(self, lp: _CanonicalLP, basis: np.ndarray, art_sign: np.ndarray) -> None:
        if faultinject.ACTIVE:
            faultinject.maybe_fail(faultinject.FACTORIZE, _SingularBasis)
        m, n_cols = lp.m, lp.n
        self.m = m
        self.stamp = lp.stamp
        # Spike tuples (pivot row, pivot value, nonzero rows, nonzero values);
        # the arrays are never written after creation, so clones may share
        # tuples and only copy the list spine.
        self._spikes: List[Tuple[int, float, np.ndarray, np.ndarray]] = []
        self._spike_nnz = 0
        self._splu = None
        self._inv = None
        instr.add("factorizations")

        # Assemble the basis matrix directly in CSC layout: basis columns
        # keep the (already sorted) row slices of the structural columns,
        # artificial columns are single signed units.
        structural = basis < n_cols
        struct_pos = np.flatnonzero(structural)
        art_pos = np.flatnonzero(~structural)
        sj = basis[struct_pos].astype(np.int64)
        indptr, indices, data = lp.A.indptr, lp.A.indices, lp.A.data
        lens = indptr[sj + 1] - indptr[sj]
        col_lens = np.zeros(m, dtype=np.int64)
        col_lens[struct_pos] = lens
        col_lens[art_pos] = 1
        indptr_B = np.concatenate(([0], np.cumsum(col_lens)))
        total = int(indptr_B[-1])
        rows_B = np.empty(total, dtype=np.int64)
        vals_B = np.empty(total, dtype=np.float64)
        if sj.size:
            offsets = np.concatenate(([0], np.cumsum(lens)))
            src = (
                np.arange(int(offsets[-1]), dtype=np.int64)
                - np.repeat(offsets[:-1], lens)
                + np.repeat(indptr[sj], lens)
            )
            dst = (
                np.arange(int(offsets[-1]), dtype=np.int64)
                - np.repeat(offsets[:-1], lens)
                + np.repeat(indptr_B[struct_pos], lens)
            )
            rows_B[dst] = indices[src]
            vals_B[dst] = data[src]
        if art_pos.size:
            art_rows = basis[art_pos] - n_cols
            slots = indptr_B[art_pos]
            rows_B[slots] = art_rows
            vals_B[slots] = art_sign[art_rows]

        if _HAVE_SPLU and m >= _SPLU_MIN_DIM:
            matrix = _scipy_csc(
                (vals_B, rows_B.astype(np.int32), indptr_B.astype(np.int32)), shape=(m, m)
            )
            try:
                self._splu = _scipy_splu(matrix)
            except RuntimeError as exc:  # exactly singular
                raise _SingularBasis(str(exc)) from None
            self._base_nnz = int(self._splu.L.nnz + self._splu.U.nnz)
        else:
            B = np.zeros((m, m))
            B[rows_B, np.repeat(np.arange(m), col_lens)] = vals_B
            try:
                self._inv = np.linalg.inv(B)
            except np.linalg.LinAlgError as exc:
                raise _SingularBasis(str(exc)) from None
            self._base_nnz = m * m
        instr.record_max("peak_nnz", lp.A.nnz + self._base_nnz)

    def clone(self) -> "_BasisFactor":
        """Copy-on-write duplicate: shared immutable LU base, private updates.

        Lets a warm start resume from the factorization stored in a
        :class:`_Basis` token without refactorizing and without corrupting
        siblings that hold the same token.  Only the list *spine* is
        copied: the spike tuples themselves are immutable by construction
        (``update`` always appends freshly-allocated arrays and never
        writes into a stored one), so a child appending its own updates can
        never mutate a parent's.
        """
        dup = object.__new__(type(self))
        dup.m = self.m
        dup.stamp = self.stamp
        dup._splu = self._splu
        dup._inv = self._inv
        dup._base_nnz = self._base_nnz
        dup._spikes = list(self._spikes)
        dup._spike_nnz = self._spike_nnz
        return dup

    # -- update file (Forrest-Tomlin spikes) --------------------------------
    @property
    def n_etas(self) -> int:
        """Number of basis updates recorded since the last factorization."""
        return len(self._spikes)

    def needs_refactor(self) -> bool:
        """True when the update file has outgrown its count/nnz budget."""
        # Small bases refactorize almost for free, so cap their update
        # count at 2m (floored at _REFACTOR_INTERVAL); large bases run up
        # to _FT_MAX_UPDATES spikes or the nonzero budget, whichever first.
        cap = min(_FT_MAX_UPDATES, max(_REFACTOR_INTERVAL, 2 * self.m))
        return (
            len(self._spikes) >= cap
            or self._spike_nnz > _FT_NNZ_PER_ROW * self.m + _FT_NNZ_BASE
        )

    def update(self, row: int, w: np.ndarray) -> None:
        """Record the pivot ``basis[row] <- column with B^-1 a_q == w``."""
        r = int(row)
        instr.add("eta_updates")
        piv = float(w[r])
        keep = np.abs(w) > _SPIKE_DROP_TOL
        keep[r] = False
        idx = np.flatnonzero(keep)
        vals = w[idx]  # fancy indexing: a fresh array, never a view of w
        if faultinject.ACTIVE:
            vals = faultinject.corrupt_vector(faultinject.SPIKE, vals)
        self._spikes.append((r, piv, idx, vals))
        self._spike_nnz += int(idx.size) + 1
        instr.add("ft_updates")
        instr.record_max("spike_nnz_peak", self._spike_nnz)

    # -- solves ------------------------------------------------------------
    def _base_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._splu is not None:
            return self._splu.solve(rhs)
        return self._inv @ rhs

    def _base_solve_T(self, rhs: np.ndarray) -> np.ndarray:
        if self._splu is not None:
            return self._splu.solve(rhs, trans="T")
        return self._inv.T @ rhs

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B x = rhs`` (LU, then updates oldest-first)."""
        x = self._base_solve(rhs)
        for r, piv, idx, vals in self._spikes:
            xr = x[r] / piv
            # Skip-on-zero: entering columns are sparse, so most spikes see
            # a zero pivot-row value and cost nothing (NaN != 0 keeps an
            # injected poison propagating).
            if xr != 0.0 and idx.size:
                x[idx] -= vals * xr
            x[r] = xr
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B^T y = rhs`` (updates newest-first, then LU transpose)."""
        v = rhs.astype(float, copy=True)
        for r, piv, idx, vals in reversed(self._spikes):
            vr = v[r]
            if idx.size:
                vr -= float(vals @ v[idx])
            v[r] = vr / piv
        return self._base_solve_T(v)


class _State:
    """Mutable simplex state: basis, statuses, values, factor, row weights."""

    __slots__ = ("lp", "basis", "vstat", "art_sign", "lower_ext", "upper_ext", "xB", "factor", "row_weights")

    def __init__(
        self,
        lp: _CanonicalLP,
        basis: np.ndarray,
        vstat: np.ndarray,
        art_sign: np.ndarray,
        lower_ext: np.ndarray,
        upper_ext: np.ndarray,
    ) -> None:
        self.lp = lp
        self.basis = basis
        self.vstat = vstat
        self.art_sign = art_sign
        self.lower_ext = lower_ext
        self.upper_ext = upper_ext
        self.xB = np.zeros(lp.m)
        self.factor: Optional[_BasisFactor] = None
        self.row_weights = np.ones(lp.m)

    def nonbasic_values(self) -> np.ndarray:
        """Value of every column as implied by its status (0 on basic slots)."""
        x = np.where(self.vstat == AT_UPPER, self.upper_ext, self.lower_ext)
        x[self.vstat == BASIC] = 0.0
        return x

    def compute_xB(self) -> None:
        """Recompute basic values from scratch: ``xB = B^-1 (b - N x_N)``."""
        x = self.nonbasic_values()
        resid = self.lp.b - self.lp.A.matvec(x[: self.lp.n])
        self.xB = self.factor.ftran(resid)

    def factorize(self) -> None:
        """Factorize the current basis from scratch."""
        self.factor = _BasisFactor(self.lp, self.basis, self.art_sign)

    def refactor(self) -> None:
        """Periodic refactorization: rebuild LU and wash out eta drift."""
        instr.add("refactorizations")
        self.factorize()
        self.compute_xB()

    def solution_vector(self) -> np.ndarray:
        """The current canonical point (basic values scattered over bounds)."""
        x = self.nonbasic_values()
        x[self.basis] = self.xB
        return x[: self.lp.n]


class _DevexPricer:
    """Devex reference-framework pricing with partial (block) scans.

    Columns are priced in contiguous blocks of :data:`_PARTIAL_BLOCK`
    via :meth:`SparseMatrix.rmatvec_range`; a cyclic cursor resumes at the
    block that last produced the entering column, so a pricing pass touches
    one block in the common case instead of every stored matrix entry.
    Within a block the entering column maximizes ``d_j^2 / w_j`` where the
    reference weights ``w_j`` approximate steepest-edge column norms and
    are maintained with the Forrest-Goldfarb devex recurrence (restricted
    to the priced block -- untouched blocks keep their last weights, which
    is the standard partial-devex compromise).  Weights reset to the unit
    reference framework once any weight exceeds
    :data:`_DEVEX_RESET_LIMIT`.
    """

    __slots__ = ("weights", "bounds", "cursor", "scan_lo", "scan_hi")

    def __init__(self, n_cols: int) -> None:
        self.weights = np.ones(n_cols)
        self.bounds = list(range(0, n_cols, _PARTIAL_BLOCK)) + [n_cols]
        self.cursor = 0
        self.scan_lo = 0
        self.scan_hi = 0

    def select(
        self,
        A: SparseMatrix,
        costs: np.ndarray,
        y: np.ndarray,
        vstat: np.ndarray,
        movable: np.ndarray,
    ) -> Tuple[int, float]:
        """Pick the entering column; ``(-1, 0.0)`` means priced optimal.

        Scans blocks cyclically from the cursor and stops at the first
        block holding an eligible candidate -- a full sweep only happens
        when the solve is (nearly) optimal.
        """
        instr.add("pricing_passes")
        nblocks = len(self.bounds) - 1
        scanned = 0
        for k in range(nblocks):
            blk = (self.cursor + k) % nblocks
            lo, hi = self.bounds[blk], self.bounds[blk + 1]
            d_blk = costs[lo:hi] - A.rmatvec_range(lo, hi, y)
            st = vstat[lo:hi]
            eligible = movable[lo:hi] & (
                ((st == AT_LOWER) & (d_blk < -EPS)) | ((st == AT_UPPER) & (d_blk > EPS))
            )
            scanned += hi - lo
            idx = np.flatnonzero(eligible)
            if idx.size:
                score = d_blk[idx] ** 2 / self.weights[lo + idx]
                j = int(idx[int(np.argmax(score))])
                # Round-robin: resume the next pass at the *following* block.
                # Parking the cursor on the hit block starves the rest of the
                # matrix -- on degenerate LPs one block of marginal zero-step
                # candidates can trap the whole solve.
                self.cursor = (blk + 1) % nblocks
                self.scan_lo, self.scan_hi = lo, hi
                instr.add("partial_scan_cols", scanned)
                return lo + j, float(d_blk[j])
        instr.add("partial_scan_cols", scanned)
        return -1, 0.0

    def on_pivot(
        self,
        A: SparseMatrix,
        q: int,
        r: int,
        w: np.ndarray,
        leaving: int,
        rho: np.ndarray,
    ) -> None:
        """Forrest-Goldfarb weight update for the pivot ``q`` enters at row
        ``r``.  ``rho`` is ``B^-T e_r`` of the *pre-pivot* basis -- the
        caller BTRANs it once and shares it with the incremental dual
        update."""
        alpha_q = float(w[r])
        if alpha_q == 0.0 or not math.isfinite(alpha_q):
            return
        w_q = float(self.weights[q])
        lo, hi = self.scan_lo, self.scan_hi
        if hi > lo:
            alpha_blk = A.rmatvec_range(lo, hi, rho)
            cand = (alpha_blk / alpha_q) ** 2 * w_q
            if np.all(np.isfinite(cand)):
                np.maximum(self.weights[lo:hi], cand, out=self.weights[lo:hi])
        if 0 <= leaving < self.weights.size:
            self.weights[leaving] = max(w_q / (alpha_q * alpha_q), 1.0)
        if float(self.weights.max()) > _DEVEX_RESET_LIMIT:
            self.weights[:] = 1.0
            instr.add("devex_resets")


def _checked_ftran(factor: _BasisFactor, rhs: np.ndarray, what: str) -> np.ndarray:
    """FTRAN ``rhs`` for a pivot; raise :class:`_NonFinitePivot`, naming
    ``what``, when the result holds NaN or Inf."""
    w = factor.ftran(rhs)
    if faultinject.ACTIVE:
        w = faultinject.corrupt_vector(faultinject.PIVOT_FTRAN, w)
    if not np.all(np.isfinite(w)):
        raise _NonFinitePivot(f"{what} came back non-finite from FTRAN")
    return w


def _primal_iterations(
    state: _State,
    costs: np.ndarray,
    max_iter: int,
    deadline: Optional[Deadline] = None,
    bland: bool = False,
) -> Tuple[str, int]:
    """Bounded-variable primal revised simplex.

    Returns ``(status, iterations)`` with status ``"optimal"``,
    ``"unbounded"`` or ``"deadline"`` (wall-clock budget expired mid-phase).
    Entering candidates are non-basic, non-fixed columns whose reduced cost
    improves the objective in the direction their bound allows; the ratio
    test accounts for both bounds of every basic variable and for the
    entering variable's own opposite bound (a "bound flip", which costs no
    basis change at all).  The entering rule is devex at or above
    :data:`_DEVEX_MIN_COLS` canonical columns and Dantzig below;
    ``bland=True`` forces Bland's anti-cycling rule from the first pivot --
    the recovery ladder's answer to numerical cycling, and the same full
    Bland sweep takes over either rule after :data:`_STALL_LIMIT`
    consecutive degenerate pivots.
    """
    lp = state.lp
    A, m, n_cols = lp.A, lp.m, lp.n
    movable = state.lower_ext[:n_cols] < state.upper_ext[:n_cols]
    pricer = _DevexPricer(n_cols) if (n_cols >= _DEVEX_MIN_COLS and not bland) else None
    iterations = 0
    stalled = _STALL_LIMIT if bland else 0
    y: Optional[np.ndarray] = None  # dual prices; None = must recompute
    y_exact = False  # True when y was BTRANed from scratch this iteration
    while iterations < max_iter:
        if (
            deadline is not None
            and iterations % _DEADLINE_STRIDE == 0
            and deadline.expired()
        ):
            return "deadline", iterations
        if state.factor.needs_refactor():
            state.refactor()
            y = None
        devex_mode = pricer is not None and stalled < _STALL_LIMIT
        if y is None or not devex_mode:
            # Dantzig/Bland reprice from scratch every iteration.  Devex
            # maintains y *incrementally* (one axpy with the rho vector its
            # weight update BTRANs anyway) and recomputes it only at
            # refactorizations -- saving a full BTRAN per pivot.
            y = state.factor.btran(costs[state.basis])
            y_exact = True
        else:
            y_exact = False
        if not np.all(np.isfinite(y)):
            # A poisoned update (e.g. an injected spike corruption) NaNs the
            # dual prices; without this check the NaN reduced costs would
            # price as "no candidate" and return a bogus "optimal".
            raise _NonFinitePivot("dual prices came back non-finite from BTRAN")
        if devex_mode:
            q, dq = pricer.select(A, costs, y, state.vstat, movable)
            if q < 0:
                if y_exact:
                    return "optimal", iterations
                # Optimality judged on drifted duals is not proof: confirm
                # on an exact BTRAN before declaring it.
                y = state.factor.btran(costs[state.basis])
                y_exact = True
                if not np.all(np.isfinite(y)):
                    raise _NonFinitePivot("dual prices came back non-finite from BTRAN")
                q, dq = pricer.select(A, costs, y, state.vstat, movable)
                if q < 0:
                    return "optimal", iterations
        else:
            d = costs[:n_cols] - A.rmatvec(y)
            eligible = movable & (
                ((state.vstat[:n_cols] == AT_LOWER) & (d < -EPS))
                | ((state.vstat[:n_cols] == AT_UPPER) & (d > EPS))
            )
            idx = np.flatnonzero(eligible)
            if idx.size == 0:
                return "optimal", iterations
            if stalled >= _STALL_LIMIT:
                q = int(idx[0])  # Bland's anti-cycling rule
            else:
                q = int(idx[np.argmax(np.abs(d[idx]))])  # Dantzig
            dq = float(d[q])
        sigma = 1.0 if dq < 0 else -1.0

        w = _checked_ftran(state.factor, A.gather_col(q, np.zeros(m)), "entering column")
        wd = sigma * w
        lB = state.lower_ext[state.basis]
        uB = state.upper_ext[state.basis]
        t = np.full(m, math.inf)
        pos = wd > EPS
        neg = wd < -EPS
        with np.errstate(invalid="ignore"):
            t[pos] = (state.xB[pos] - lB[pos]) / wd[pos]
            t[neg] = (state.xB[neg] - uB[neg]) / wd[neg]
        t[~np.isfinite(t)] = math.inf
        np.maximum(t, 0.0, out=t)
        t_basic = float(t.min()) if m else math.inf
        t_flip = state.upper_ext[q] - state.lower_ext[q]
        if not (math.isfinite(t_basic) or math.isfinite(t_flip)):
            return "unbounded", iterations

        if t_flip <= t_basic:
            # The entering variable hits its own opposite bound first: flip
            # its status, adjust the basic values, no pivot.
            state.xB -= t_flip * wd
            state.vstat[q] = AT_UPPER if sigma > 0 else AT_LOWER
            step = t_flip
            instr.add("bound_flips")
        else:
            ties = np.flatnonzero(t <= t_basic + EPS)
            if stalled >= _STALL_LIMIT:
                # Bland mode: lowest basis index among ties -- required for
                # the finite-termination guarantee of Bland's rule.
                r = int(ties[np.argmin(state.basis[ties])])
            else:
                # Largest pivot magnitude among ties: the numerically stable
                # choice, and on degenerate vertices it leaves the tie set
                # far faster than a fixed-index rule.
                r = int(ties[np.argmax(np.abs(wd[ties]))])
            leaving = int(state.basis[r])
            state.xB -= t_basic * wd
            enter_from = state.lower_ext[q] if sigma > 0 else state.upper_ext[q]
            state.xB[r] = enter_from + sigma * t_basic
            state.vstat[leaving] = AT_LOWER if wd[r] > 0 else AT_UPPER
            state.vstat[q] = BASIC
            state.basis[r] = q
            if devex_mode:
                # rho = B^-T e_r of the *pre-pivot* basis, shared by the
                # devex weight recurrence and the incremental dual update
                # y' = y + (d_q / alpha_rq) rho  (zeroes the entering
                # reduced cost exactly as the basis-change algebra demands).
                e_r = np.zeros(m)
                e_r[r] = 1.0
                rho = state.factor.btran(e_r)
                pricer.on_pivot(A, q, r, w, leaving, rho)
                wr = float(w[r])
                if wr != 0.0 and math.isfinite(wr):
                    y = y + (dq / wr) * rho
                else:
                    y = None
            elif pricer is not None:
                # A Bland-escape pivot while devex is parked: the cached
                # duals are stale after this basis change.
                y = None
            state.factor.update(r, w)
            step = t_basic
        iterations += 1
        instr.add("pivots")
        if abs(dq) * step > EPS:
            stalled = 0
        else:
            stalled += 1
            instr.add("degenerate_pivots")
            if stalled >= _STALL_ABORT + (_STALL_LIMIT if bland else 0):
                raise _DegenerateStall(
                    f"{stalled} consecutive degenerate pivots "
                    f"(after {iterations} iterations)"
                )
    raise SolverError(f"simplex did not converge within {max_iter} iterations")


def _reduced_costs(state: _State, costs: np.ndarray) -> np.ndarray:
    y = state.factor.btran(costs[state.basis])
    return costs[: state.lp.n] - state.lp.A.rmatvec(y)


def _dual_iterations(
    state: _State,
    costs: np.ndarray,
    max_iter: int,
    d: Optional[np.ndarray] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[str, int]:
    """Restore primal feasibility of a dual-feasible factorized basis.

    This is the node re-solve workhorse of warm-started branch and bound:
    after a bound change the parent-optimal basis keeps sign-consistent
    reduced costs but some basic values fall outside their bounds.  Each
    iteration drops a violating basic variable onto its violated bound and
    enters the column selected by the bounded dual ratio test.

    ``d`` seeds the non-basic reduced costs (the caller usually has them
    already); they are then maintained *incrementally* -- one BTRAN and one
    sparse row pass per pivot instead of a from-scratch pricing -- and
    recomputed exactly at every refactorization to wash out drift.

    The leaving row maximizes ``viol_r^2 / w_r`` over the devex row weights
    ``state.row_weights`` (``w_r`` approximates the steepest-edge row norm),
    updated in place, so a warm start seeded with its parent's weights
    continues the parent's reference framework.  The entering column comes
    from a bounded ratio test that still scans every column the pivot row
    can make eligible: dual feasibility of the repaired basis needs them
    all, so partial pricing is unsound here.  On an LP of at least
    :data:`_DEVEX_MIN_COLS` columns whose ``rho = B^-T e_r`` has nonzero
    rows holding at most a tenth of the stored entries, the pivot row, the
    eligibility test and the reduced-cost update run only on the columns
    those rows touch (:meth:`SparseMatrix.rmatvec_rows`); the pivot row is
    zero on every other column.  An iteration makes at most two FTRANs: one
    for all of its bound flips, one for the entering column.

    Returns ``("feasible", iters)`` when every basic value is back inside
    its bounds, ``("infeasible", iters)`` when a violated row admits no
    entering column or the bound-flipping ratio test flipped every one of
    them without reaching the row's bound (proof of primal infeasibility),
    ``("deadline", iters)`` when the wall-clock budget expired, or
    ``("stalled", iters)`` when the iteration budget runs out or a pivot is
    numerically unusable, in which case the caller falls back to a cold
    solve.

    Both infeasibility exits read only the pivot row and the bounds, never
    ``costs``, so they stay proofs when the caller runs the loop on shifted
    costs (see :func:`_warm_solve`).
    """
    lp = state.lp
    A, m, n_cols = lp.A, lp.m, lp.n
    movable = state.lower_ext[:n_cols] < state.upper_ext[:n_cols]
    if d is None:
        d = _reduced_costs(state, costs)
    dweights = state.row_weights
    # The pivot row is summed over the columns rho's nonzero rows touch when
    # those rows hold at most a tenth of the stored entries.  Below
    # _DEVEX_MIN_COLS the full product is cheap and the density check is not.
    row_budget = A.nnz // 10 if n_cols >= _DEVEX_MIN_COLS else None
    iterations = 0
    while iterations < max_iter:
        if (
            deadline is not None
            and iterations % _DEADLINE_STRIDE == 0
            and deadline.expired()
        ):
            return "deadline", iterations
        if state.factor.needs_refactor():
            state.refactor()
            d = _reduced_costs(state, costs)
        lB = state.lower_ext[state.basis]
        uB = state.upper_ext[state.basis]
        below = lB - state.xB
        above = state.xB - uB
        viol = np.maximum(below, above)
        if m == 0 or viol.max() <= _WARM_FEAS_TOL:
            return "feasible", iterations
        scores = np.where(viol > _WARM_FEAS_TOL, viol * viol / dweights, -math.inf)
        r = int(np.argmax(scores))
        below_case = below[r] >= above[r]

        e_r = np.zeros(m)
        e_r[r] = 1.0
        rho = state.factor.btran(e_r)
        # ``touched`` indexes the pivot row's columns: every column, or only
        # the ``cols`` that rho's nonzero rows reach (alpha is zero on the
        # rest, so no other column is eligible or changes its reduced cost).
        row = None if row_budget is None else A.rmatvec_rows(rho, row_budget)
        cols: Optional[np.ndarray]
        if row is None:
            cols, alpha = None, A.rmatvec(rho)
        else:
            cols, alpha = row
            instr.add("sparse_pivot_rows")
        touched: Union[slice, np.ndarray] = slice(None) if cols is None else cols
        if not np.all(np.isfinite(alpha)):
            raise _NonFinitePivot("dual pricing row came back non-finite from BTRAN")

        st = state.vstat[:n_cols][touched]
        at_low = st == AT_LOWER
        at_up = st == AT_UPPER
        if below_case:  # the leaving basic must increase back to its lower bound
            eligible = movable[touched] & ((at_low & (alpha < -EPS)) | (at_up & (alpha > EPS)))
        else:
            eligible = movable[touched] & ((at_low & (alpha > EPS)) | (at_up & (alpha < -EPS)))
        pos = np.flatnonzero(eligible)
        if pos.size == 0:
            return "infeasible", iterations
        cand = pos if cols is None else cols[pos]
        alpha_c = alpha[pos]
        order = np.argsort(np.abs(d[cand]) / np.abs(alpha_c), kind="stable")
        target = lB[r] if below_case else uB[r]

        # Bound-flipping ratio test.  Candidates are visited in ascending
        # ratio order; one whose own range is shorter than the step the
        # leaving row still needs would, if pivoted in, park the new basic
        # variable outside its box -- the degenerate-overshoot stall.  It is
        # *flipped* to its opposite bound instead (no pivot, no eta): the row
        # violation shrinks by range * |alpha_q| and the candidate is
        # consumed.  alpha_q is the leaving row's entry of B^-1 a_q, so the
        # test needs no FTRAN: it tracks the leaving row's value ``xr`` as a
        # scalar, and the closing pivot moves every basic value by all the
        # flips at once, one FTRAN of sum_j delta_j a_j.
        # Because every flipped candidate's ratio is below the eventual pivot
        # ratio, the closing pivot's price update gives each flipped column
        # exactly the reduced-cost sign its new bound requires, so dual
        # feasibility survives.  The sequence must end in a real pivot.  If
        # the candidates run out with the row still violated, every column
        # that can move the row has reached the bound that helps it most, so
        # no point of the box satisfies the row: "infeasible".  If a flip
        # alone drops the row inside its bounds, the flipped columns' prices
        # are left inconsistent, so we return "stalled" and let the caller
        # cold-solve.  Either way the state is discarded, so the flips'
        # FTRAN runs only before a closing pivot.
        xr = float(state.xB[r])
        flips: List[Tuple[int, float]] = []
        for k in order:
            q = int(cand[k])
            alpha_q = float(alpha_c[k])
            range_q = state.upper_ext[q] - state.lower_ext[q]
            t = (xr - target) / alpha_q
            if math.isfinite(range_q) and abs(t) > range_q + EPS:
                delta = range_q if t > 0 else -range_q
                xr -= delta * alpha_q
                flips.append((q, delta))
                state.vstat[q] = AT_UPPER if state.vstat[q] == AT_LOWER else AT_LOWER
                iterations += 1
                instr.add("dual_bound_flips")
                still_violated = (
                    xr < lB[r] - _WARM_FEAS_TOL if below_case else xr > uB[r] + _WARM_FEAS_TOL
                )
                if not still_violated or iterations >= max_iter:
                    return "stalled", iterations
                continue
            if flips:
                moved = np.zeros(m)
                for j, delta in flips:
                    rows_j, vals_j = A.col(j)
                    moved[rows_j] += delta * vals_j
                state.xB -= _checked_ftran(state.factor, moved, "bound-flip update")
            w = _checked_ftran(state.factor, A.gather_col(q, np.zeros(m)), "entering column")
            if abs(w[r]) < 1e-11:
                return "stalled", iterations
            t = (state.xB[r] - target) / w[r]
            enter_from = state.lower_ext[q] if state.vstat[q] == AT_LOWER else state.upper_ext[q]
            leaving = int(state.basis[r])
            state.xB -= t * w
            state.xB[r] = enter_from + t
            state.vstat[leaving] = AT_LOWER if below_case else AT_UPPER
            state.vstat[q] = BASIC
            state.basis[r] = q
            state.factor.update(r, w)
            # Devex row-weight recurrence: rows touched by the pivot inherit
            # at least the scaled pivot-row weight; the pivot row's own
            # weight is rescaled by the pivot element.
            wr = float(w[r])
            ref = dweights[r]
            cand_w = (w / wr) ** 2 * ref
            if np.all(np.isfinite(cand_w)):
                np.maximum(dweights, cand_w, out=dweights)
            dweights[r] = max(ref / (wr * wr), 1.0)
            if float(dweights.max()) > _DEVEX_RESET_LIMIT:
                dweights[:] = 1.0
                instr.add("devex_resets")
            # Incremental dual-price update: d_j' = d_j - theta * alpha_j with
            # theta = d_q / alpha_q; the entering column becomes basic (d = 0)
            # and the leaving variable's price is exactly -theta.
            theta = d[q] / alpha_q
            if theta != 0.0:
                d[touched] -= theta * alpha
            d[q] = 0.0
            if leaving < n_cols:
                d[leaving] = -theta
            iterations += 1
            instr.add("dual_pivots")
            break
        else:
            return "infeasible", iterations
    return "stalled", iterations


def _finish_primal(
    state: _State,
    max_iter: int,
    dual_iters: int,
    deadline: Optional[Deadline] = None,
    bland: bool = False,
) -> Tuple[str, Optional[np.ndarray], int, Optional[_Basis]]:
    """Run phase-2 primal pivots and package the result tuple."""
    lp = state.lp
    costs = np.concatenate((lp.c, np.zeros(lp.m)))
    status, iters = _primal_iterations(state, costs, max_iter, deadline=deadline, bland=bland)
    total = dual_iters + iters
    if status in ("unbounded", "deadline"):
        return status, None, total, None
    token = _Basis(
        basis=state.basis.copy(),
        vstat=state.vstat.copy(),
        art_sign=state.art_sign.copy(),
        n_rows=lp.m,
        n_cols=lp.n,
        free_mask=lp.free_mask.copy(),
        factor=state.factor,
        row_weights=state.row_weights,
    )
    return "optimal", state.solution_vector(), total, token


def _cold_solve(
    lp: _CanonicalLP,
    max_iter: int,
    deadline: Optional[Deadline] = None,
    bland: bool = False,
) -> Tuple[str, Optional[np.ndarray], int, Optional[_Basis]]:
    """Two-phase solve from a crash basis of slacks and signed artificials."""
    m, n_cols = lp.m, lp.n
    n_exp = n_cols - lp.n_ub
    lower_ext = np.concatenate((lp.lower, np.zeros(m)))
    upper_ext = np.concatenate((lp.upper, np.full(m, math.inf)))
    vstat = np.empty(n_cols + m, dtype=np.int8)
    vstat[:n_cols] = np.where(np.isfinite(lp.lower), AT_LOWER, AT_UPPER)
    vstat[n_cols:] = AT_LOWER

    x0 = np.where(vstat[:n_cols] == AT_LOWER, lp.lower, lp.upper)
    resid = lp.b - lp.A.matvec(x0)

    # Crash basis: a slack whose row residual is non-negative can serve as
    # the basic variable of its own row; only the remaining rows need a
    # phase-1 artificial (with a unit column matching the residual's sign).
    basis = np.empty(m, dtype=np.int64)
    art_sign = np.ones(m)
    use_slack = np.zeros(m, dtype=bool)
    if lp.n_ub:
        use_slack[: lp.n_ub] = resid[: lp.n_ub] >= 0.0
    slack_rows = np.flatnonzero(use_slack)
    art_rows = np.flatnonzero(~use_slack)
    basis[slack_rows] = n_exp + slack_rows
    basis[art_rows] = n_cols + art_rows
    art_sign[art_rows] = np.where(resid[art_rows] >= 0.0, 1.0, -1.0)
    vstat[basis] = BASIC

    state = _State(lp, basis, vstat, art_sign, lower_ext, upper_ext)
    state.factorize()
    state.xB = resid.copy()
    # ``resid`` was computed with every slack at its lower bound; a slack
    # made basic must absorb its own x0 contribution back.  A no-op for the
    # usual zero slack bound, but the bound-shift recovery rung solves with
    # slack lower bounds pushed slightly negative.
    if slack_rows.size:
        state.xB[slack_rows] += lower_ext[basis[slack_rows]]
    state.xB[art_rows] = np.abs(resid[art_rows])

    phase1_iters = 0
    if art_rows.size:
        costs1 = np.concatenate((np.zeros(n_cols), np.ones(m)))
        # Unused artificials must not be priced in: pin them immediately.
        unused_arts = n_cols + slack_rows
        upper_ext[unused_arts] = 0.0
        status, phase1_iters = _primal_iterations(
            state, costs1, max_iter, deadline=deadline, bland=bland
        )
        if status == "deadline":
            return "deadline", None, phase1_iters, None
        if status != "optimal":
            raise SolverError("phase-1 simplex reported an unbounded auxiliary problem")
        art_basic = state.basis >= n_cols
        if float(np.abs(state.xB[art_basic]).sum()) > _PHASE1_TOL:
            return "infeasible", None, phase1_iters, None
        # Artificials still basic sit at ~0 on redundant rows; pin every
        # artificial at zero so none can move again in phase 2.
        upper_ext[n_cols:] = 0.0
        state.xB[art_basic] = 0.0

    return _finish_primal(state, max_iter, phase1_iters, deadline=deadline, bland=bland)


def _resumable(token: _Basis, lp: _CanonicalLP) -> bool:
    """Whether a warm start from ``token`` resumes its stored factorization.

    It does when the token carries a factor of this very lowering that has
    room for more updates; otherwise :func:`_warm_solve` factorizes afresh.
    """
    factor = token.factor
    return factor is not None and factor.stamp == lp.stamp and not factor.needs_refactor()


def _warm_solve(
    lp: _CanonicalLP,
    token: _Basis,
    max_iter: int,
    deadline: Optional[Deadline] = None,
    fresh_factor: bool = False,
    stall_rung: str = "warm-stall",
) -> Optional[Tuple[str, Optional[np.ndarray], int, Optional[_Basis]]]:
    """Resume from a previous basis; ``None`` means fall back to a cold solve.

    The basis is refactorized once.  When it is primal feasible under the
    current data, phase 2 resumes directly.  Otherwise bounded dual simplex
    pivots repair primal feasibility and phase 2 finishes on the true
    costs.  A basis that is dual infeasible too (a patched right-hand side
    *and* objective, as in the PPME* re-solves) is first made dual feasible
    by *cost shifting*: each wrong-signed non-basic column's cost is moved
    by its reduced cost, which zeroes that reduced cost and leaves the dual
    prices untouched.  The dual loop's infeasibility proofs do not read the
    costs, so they hold under the shift.  ``None`` is left for a stalled
    repair and for a basis that cannot be factorized or no longer satisfies
    the constraints.  ``fresh_factor=True`` skips the stored-factorization
    resume and refactorizes from scratch -- the "refactorize" rung of the
    recovery ladder, retried after the stored factors produced numerical
    garbage.  A stalled repair is recorded as the ``stall_rung`` rung.
    """
    m, n_cols = lp.m, lp.n
    basis = token.basis.copy()
    vstat = token.vstat.copy()
    art_sign = token.art_sign.copy()
    lower_ext = np.concatenate((lp.lower, np.zeros(m)))
    upper_ext = np.concatenate((lp.upper, np.zeros(m)))  # artificials stay pinned

    # A non-basic status pointing at a bound that is now infinite (possible
    # after a session-level bound relaxation) is re-homed to the opposite
    # finite bound, or rejected when there is none.
    st = vstat[:n_cols]
    bad_low = (st == AT_LOWER) & np.isneginf(lp.lower)
    bad_up = (st == AT_UPPER) & np.isposinf(lp.upper)
    if np.any(bad_low & ~np.isfinite(lp.upper)) or np.any(bad_up & ~np.isfinite(lp.lower)):
        return None
    st[bad_low] = AT_UPPER
    st[bad_up] = AT_LOWER

    state = _State(lp, basis, vstat, art_sign, lower_ext, upper_ext)
    if token.row_weights is not None:
        state.row_weights = token.row_weights.copy()
    if token.factor is not None and not fresh_factor and _resumable(token, lp):
        # Resume on the parent's factorization: shared LU base, private
        # eta file.  The residual check below still guards against drift
        # accumulated across warm-start generations.
        state.factor = token.factor.clone()
    else:
        try:
            state.factorize()
        except _SingularBasis:
            return None
    state.compute_xB()
    if not np.all(np.isfinite(state.xB)):
        return None

    # Verify the refactorized basis actually reproduces the constraints
    # (guards against a numerically garbage factorization).
    x_full = state.nonbasic_values()
    x_full[basis] = state.xB
    gap = lp.b - lp.A.matvec(x_full[:n_cols])
    art_basic = np.flatnonzero(basis >= n_cols)
    if art_basic.size:
        art_rows = basis[art_basic] - n_cols
        gap[art_rows] -= art_sign[art_rows] * state.xB[art_basic]
        if np.max(np.abs(state.xB[art_basic])) > _WARM_FEAS_TOL:
            return None
        state.xB[art_basic] = 0.0
    scale = 1.0 + (np.max(np.abs(lp.b)) if m else 0.0)
    if m and np.max(np.abs(gap)) > 1e-6 * scale:
        return None

    lB = lower_ext[basis]
    uB = upper_ext[basis]
    primal_ok = bool(np.all(state.xB >= lB - _WARM_FEAS_TOL) and np.all(state.xB <= uB + _WARM_FEAS_TOL))
    if primal_ok:
        np.clip(state.xB, lB, uB, out=state.xB)
        return _finish_primal(state, max_iter, 0, deadline=deadline)

    costs = np.concatenate((lp.c, np.zeros(m)))
    y = state.factor.btran(costs[basis])
    d = lp.c - lp.A.rmatvec(y)
    movable = lp.lower < lp.upper
    dual_bad = movable & (
        ((st == AT_LOWER) & (d < -_WARM_FEAS_TOL))
        | ((st == AT_UPPER) & (d > _WARM_FEAS_TOL))
    )
    # Cost shifting: the dual loop runs on costs under which the basis is
    # dual feasible; _finish_primal below prices with the true costs again.
    costs[:n_cols][dual_bad] -= d[dual_bad]
    d[dual_bad] = 0.0
    if faultinject.ACTIVE and faultinject.should(faultinject.WARM_REPAIR):
        dual_status, dual_iters = "stalled", 0
    else:
        dual_status, dual_iters = _dual_iterations(state, costs, max_iter, d=d, deadline=deadline)
    if dual_status == "infeasible":
        return "infeasible", None, dual_iters, None
    if dual_status == "deadline":
        return "deadline", None, dual_iters, None
    if dual_status != "feasible":
        # Stalled repair: the solve silently degrades to a cold two-phase
        # solve -- make that observable before falling back.
        record_rung(
            stall_rung,
            f"dual repair stalled after {dual_iters} pivots; "
            "falling back to a cold two-phase solve",
        )
        return None
    return _finish_primal(state, max_iter, dual_iters, deadline=deadline)


def extend_warm_basis(
    token: _Basis, old_lp: _CanonicalLP, new_lp: _CanonicalLP
) -> Optional[_Basis]:
    """Migrate a warm-start basis across appended columns and ``<=`` rows.

    The column-generation restricted master and the branch-and-bound root
    cut rounds grow strictly by appending: new structural columns after the
    existing ones and new inequality rows after the existing inequality
    block (equality rows are never added or reordered).  Under that discipline every old basic variable keeps a
    well-defined home in the new canonical layout -- structural columns keep
    their index, slack ``i`` moves from ``n_exp_old + i`` to
    ``n_exp_new + i``, and a leftover phase-1 artificial follows its row --
    while each appended row starts with its own slack basic and appended
    columns rest at a finite bound.  The migrated token carries no
    factorization (``factor=None``) and no row weights (carried across cut
    rows they grew the Figure 7 trees), so the next :func:`_warm_solve`
    refactorizes once and then resumes phase 2 directly whenever the old
    point is still primal feasible (the common case for a pure column
    append).  Returns ``None`` when the two lowerings are not related by an
    append (different equality-row count, shrunk dimensions, or a changed
    free-variable split on the shared prefix), in which case the caller
    should cold-start.
    """
    if not _basis_compatible(token, old_lp):
        return None
    n_old, n_new = old_lp.n_original, new_lp.n_original
    if n_new < n_old or new_lp.n_ub < old_lp.n_ub:
        return None
    if (old_lp.m - old_lp.n_ub) != (new_lp.m - new_lp.n_ub):
        return None
    if not np.array_equal(new_lp.free_mask[:n_old], old_lp.free_mask):
        return None
    n_exp_old = old_lp.n - old_lp.n_ub
    n_exp_new = new_lp.n - new_lp.n_ub
    added_ub = new_lp.n_ub - old_lp.n_ub
    m_new = new_lp.m
    # Old <= rows keep their index; old == rows shift past the appended
    # <= block.  (Canonical row order is [ub rows; eq rows].)
    old_rows = np.arange(old_lp.m, dtype=np.int64)
    new_row_of = np.where(old_rows < old_lp.n_ub, old_rows, old_rows + added_ub)

    def map_cols(idx: np.ndarray) -> np.ndarray:
        """Shift old canonical column ids to their new-canonical positions."""
        out = idx.copy()
        slack = (idx >= n_exp_old) & (idx < old_lp.n)
        art = idx >= old_lp.n
        out[slack] += n_exp_new - n_exp_old
        out[art] = new_lp.n + new_row_of[idx[art] - old_lp.n]
        return out

    vstat = np.empty(new_lp.n + m_new, dtype=np.int8)
    # Appended structural columns rest at a finite bound (crash-basis rule);
    # then the surviving statuses overwrite the shared prefix.
    vstat[:n_exp_new] = np.where(
        np.isfinite(new_lp.lower[:n_exp_new]), AT_LOWER, AT_UPPER
    )
    vstat[:n_exp_old] = token.vstat[:n_exp_old]
    vstat[n_exp_new : new_lp.n] = AT_LOWER
    vstat[n_exp_new : n_exp_new + old_lp.n_ub] = token.vstat[n_exp_old : old_lp.n]
    vstat[new_lp.n :] = AT_LOWER
    vstat[new_lp.n + new_row_of] = token.vstat[old_lp.n :]

    art_sign = np.ones(m_new)
    art_sign[new_row_of] = token.art_sign

    basis = np.empty(m_new, dtype=np.int64)
    basis[new_row_of] = map_cols(token.basis)
    new_ub_rows = np.arange(old_lp.n_ub, new_lp.n_ub, dtype=np.int64)
    basis[new_ub_rows] = n_exp_new + new_ub_rows
    vstat[n_exp_new + new_ub_rows] = BASIC

    return _Basis(
        basis=basis,
        vstat=vstat,
        art_sign=art_sign,
        n_rows=m_new,
        n_cols=new_lp.n,
        free_mask=new_lp.free_mask.copy(),
        factor=None,
    )


def _solution_from_canonical(
    form: StandardForm,
    lp: _CanonicalLP,
    status: str,
    y: Optional[np.ndarray],
    iterations: int,
) -> Solution:
    if status == "infeasible":
        return Solution(status=SolveStatus.INFEASIBLE, backend="simplex", iterations=iterations)
    if status == "unbounded":
        return Solution(status=SolveStatus.UNBOUNDED, backend="simplex", iterations=iterations)
    if status == "deadline":
        instr.add("deadline_expiries")
        return Solution(
            status=SolveStatus.TIME_LIMIT, backend="simplex", iterations=iterations, gap=math.inf
        )
    if y is None:
        raise InternalSolverError(
            f"simplex reported status {status!r} without a solution vector"
        )
    x = lp.recover(y)
    values = {name: float(x[i]) for i, name in enumerate(form.names)}
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=form.objective_value(x),
        values=values,
        backend="simplex",
        iterations=iterations,
    )


#: Seed of the deterministic cost perturbation used by the recovery ladder.
_PERTURB_SEED = 0x5EED


def _perturbed_solve(
    lp: _CanonicalLP,
    max_iter: int,
    deadline: Optional[Deadline],
) -> Optional[Tuple[str, Optional[np.ndarray], int, Optional[_Basis]]]:
    """Cold solve under deterministically perturbed costs, then unperturb.

    A tiny positive cost jitter breaks the degenerate ties that drive
    cycling and singular pivot sequences.  Costs do not affect feasibility,
    so an ``infeasible`` answer stands as-is; an ``optimal`` one is cleaned
    up by resuming the final basis under the *true* costs (the perturbed
    optimum is primal feasible, so the resume is a short phase-2 run).
    ``None`` means the rung did not produce a trustworthy answer and the
    ladder should continue.
    """
    saved_c = lp.c
    rng = np.random.default_rng(_PERTURB_SEED)
    jitter = 1e-7 * (1.0 + np.abs(saved_c)) * rng.random(saved_c.shape)
    lp.c = saved_c + jitter
    try:
        result = _cold_solve(lp, max_iter, deadline=deadline)
    finally:
        lp.c = saved_c
    status, _y, iters, token = result
    if status in ("infeasible", "deadline"):
        return result
    if status != "optimal" or token is None:
        # "unbounded" under jittered costs is not proof for the true costs.
        return None
    cleanup = _warm_solve(lp, token, max_iter, deadline=deadline)
    return cleanup


def _bound_shifted_solve(
    lp: _CanonicalLP,
    max_iter: int,
    deadline: Optional[Deadline],
) -> Optional[Tuple[str, Optional[np.ndarray], int, Optional[_Basis]]]:
    """Cold solve under deterministically *expanded* bounds, then repair.

    Zero-length steps come from basic variables sitting exactly on a bound
    -- primal degeneracy, which no cost jitter can remove.  Shifting every
    finite bound outward by a tiny deterministic amount makes ratio-test
    ties (and hence degenerate pivots) vanish almost surely.  Because the
    true feasible region is *contained* in the shifted one and the costs
    are untouched, ``infeasible`` and ``unbounded`` answers stand as-is.
    An ``optimal`` basis is repaired by restoring the true bounds and
    resuming via :func:`_warm_solve`: the reduced costs are exact (costs
    never changed), so the basis is dual feasible and the standard
    warm-start dual repair walks the basic values back inside their true
    bounds.  ``None`` means the rung did not produce a trustworthy answer.
    """
    saved_lower, saved_upper = lp.lower, lp.upper
    rng = np.random.default_rng(_PERTURB_SEED ^ 0xB0D5)
    lo_shift = 1e-7 * (1.0 + np.abs(saved_lower)) * (0.5 + 0.5 * rng.random(saved_lower.shape))
    up_shift = 1e-7 * (1.0 + np.abs(saved_upper)) * (0.5 + 0.5 * rng.random(saved_upper.shape))
    lower = np.where(np.isfinite(saved_lower), saved_lower - lo_shift, saved_lower)
    upper = np.where(np.isfinite(saved_upper), saved_upper + up_shift, saved_upper)
    lp.lower, lp.upper = lower, upper
    try:
        result = _cold_solve(lp, max_iter, deadline=deadline)
    finally:
        lp.lower, lp.upper = saved_lower, saved_upper
    status, _y, iters, token = result
    if status in ("infeasible", "unbounded", "deadline"):
        return result
    if status != "optimal" or token is None:
        return None
    return _warm_solve(lp, token, max_iter, deadline=deadline)


def _cold_solve_resilient(
    lp: _CanonicalLP,
    max_iter: int,
    deadline: Optional[Deadline],
) -> Tuple[str, Optional[np.ndarray], int, Optional[_Basis]]:
    """Cold solve wrapped in the numerical-recovery ladder.

    Rungs, in order: plain cold solve -> deterministic cost perturbation
    (with post-solve unperturbation) -> deterministic bound shifting (with
    post-solve repair; the rung that actually removes primal-degenerate
    stalling) -> forced Bland pricing.  Each rung is counted in
    instrumentation and surfaced as a Diagnostic; when Bland pricing fails
    too, the solve raises ``SolverError``.  Every rung computes something
    new: the solves are deterministic, so re-running one would only repeat
    its failure.

    From :data:`_SHIFT_PROACTIVE_COLS` columns on the first rung is the
    bound-shifted solve itself (the placement LPs stall almost surely on
    exact bounds there), and the reactive bound-shift rung is skipped: it
    would re-run that solve with the same seed.  Such LPs get here with
    equality rows, or when a warm start or the all-slack start falls back.
    """
    if lp.n >= _SHIFT_PROACTIVE_COLS:
        try:
            result = _bound_shifted_solve(lp, max_iter, deadline)
            if result is not None:
                return result
            failure: _NumericalTrouble = _NumericalTrouble(
                "bound-shifted cold solve did not produce a usable basis"
            )
        except _NumericalTrouble as exc:
            failure = exc
        record_rung(
            "shift-fallback",
            f"proactive bound-shifted solve failed ({failure}); "
            "retrying on the exact bounds",
        )
    try:
        return _cold_solve(lp, max_iter, deadline=deadline)
    except _DegenerateStall as exc:
        # Cost jitter cannot remove zero-length steps; skip the
        # perturbation rung.
        failure = exc
    except _NumericalTrouble as exc:
        failure = exc
        record_rung("perturb", f"cold solve failed ({failure}); retrying with perturbed costs")
        try:
            result = _perturbed_solve(lp, max_iter, deadline)
            if result is not None:
                return result
        except _NumericalTrouble as exc2:
            failure = exc2
    if lp.n < _SHIFT_PROACTIVE_COLS:
        record_rung("bound-shift", f"cold solve failed ({failure}); retrying with shifted bounds")
        try:
            result = _bound_shifted_solve(lp, max_iter, deadline)
            if result is not None:
                return result
        except _NumericalTrouble as exc:
            failure = exc
    record_rung("bland", f"earlier rungs failed ({failure}); retrying with Bland pricing")
    try:
        return _cold_solve(lp, max_iter, deadline=deadline, bland=True)
    except _NumericalTrouble as exc:
        raise SolverError(
            f"simplex could not recover from numerical failure: {exc}"
        ) from exc


class SimplexSolver:
    """Reusable sparse revised simplex session over one :class:`StandardForm`.

    Branch and bound (and :class:`repro.optim.backend.SolverSession`) solve
    many LPs that share the constraint matrix and differ only in variable
    bounds or right-hand sides.  This class canonicalizes the *structure*
    exactly once (columns, splits, slacks, sparsity pattern); subsequent
    solves patch only bound values, the right-hand side and the costs into
    the shared canonical arrays, then warm-start from a previously optimal
    basis whenever one is supplied.  Patched matrix values are re-gathered
    in place by :meth:`refresh` while the pattern holds.
    """

    def __init__(self, form: StandardForm, max_iter: int = 100_000) -> None:
        self.form = form
        self.max_iter = max_iter
        self._lp: Optional[_CanonicalLP] = None

    def refresh(self, pattern_grew: bool) -> None:
        """Bring the canonical LP up to date with patched matrix coefficients.

        :class:`repro.optim.backend.SolverSession` calls this after patching
        *coefficients* of the form's sparse matrices (bounds, right-hand
        sides and objective coefficients are re-read on every solve and do
        not need it).  While the sparsity pattern is unchanged the values
        are re-gathered in place (:meth:`_CanonicalLP.regather`, under a
        new stamp); a patch that grew the pattern forces a full re-lowering
        on the next solve.
        """
        if pattern_grew:
            self._lp = None
        elif self._lp is not None:
            self._lp.regather(self.form)

    def _ensure_canonical(self, lb: np.ndarray, ub: np.ndarray) -> _CanonicalLP:
        free = np.isneginf(lb) & np.isposinf(ub)
        lp = self._lp
        if lp is None or not np.array_equal(free, lp.free_mask):
            self._lp = lp = _canonicalize(self.form, lb=lb, ub=ub)
            return lp
        # Same structure: patch the numeric data in place (O(n + m)).
        lp.set_bounds(lb, ub)
        m_ub = lp.n_ub
        lp.b[:m_ub] = self.form.b_ub
        lp.b[m_ub:] = self.form.b_eq
        lp.c[lp.plus_index] = self.form.c
        if lp.free_mask.any():
            lp.c[lp.minus_index[lp.free_mask]] = -self.form.c[lp.free_mask]
        return lp

    def solve(
        self,
        lb: Optional[np.ndarray] = None,
        ub: Optional[np.ndarray] = None,
        warm_basis: Optional[_Basis] = None,
        max_iter: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Solution, Optional[_Basis]]:
        """Solve the LP with overridden bounds; returns (solution, basis).

        The returned basis token can be handed back as ``warm_basis`` on a
        later solve (typically of a child branch-and-bound node); it is
        ignored automatically when the canonical structure changed, e.g.
        when a previously free variable gained a finite bound.

        ``max_iter`` bounds each simplex phase separately (dual repair,
        residual primal, and -- if the warm start stalls -- the cold
        two-phase fallback), so a pathological solve may cost a small
        multiple of it; treat it as a convergence safety net, not an exact
        work budget.
        """
        lb = self.form.lb if lb is None else np.asarray(lb, dtype=float)
        ub = self.form.ub if ub is None else np.asarray(ub, dtype=float)
        limit = self.max_iter if max_iter is None else max_iter
        lp = self._ensure_canonical(lb, ub)

        result = None
        if warm_basis is not None and _basis_compatible(warm_basis, lp):
            try:
                result = _warm_solve(lp, warm_basis, limit, deadline=deadline)
            except _NumericalTrouble as exc:
                # A token without a resumable factor was factorized fresh by
                # this attempt: a retry would repeat the same work.
                if _resumable(warm_basis, lp):
                    record_rung(
                        "refactorize",
                        f"warm solve hit numerical trouble ({exc}); "
                        "retrying on a fresh factorization",
                    )
                    try:
                        result = _warm_solve(lp, warm_basis, limit, deadline=deadline, fresh_factor=True)
                    except _NumericalTrouble:
                        pass
        elif lp.n >= _SLACK_START_MIN_COLS and lp.m == lp.n_ub:
            # The slack basis is factorized from scratch: no refactorize retry.
            slack = _slack_basis(lp)
            try:
                result = _warm_solve(lp, slack, limit, deadline, stall_rung="slack-fallback")
            except _NumericalTrouble as exc:
                record_rung("slack-fallback", f"all-slack dual start failed ({exc}); solving cold")
        if result is None:
            result = _cold_solve_resilient(lp, limit, deadline)
        status, y, iterations, token = result
        instr.add("lp_solves")
        solution = _solution_from_canonical(self.form, lp, status, y, iterations)
        if solution.status is SolveStatus.OPTIMAL and token is not None and token.factor is not None:
            # Post-optimal reduced costs in the original variable space
            # (min-sense): price once against the final factorization.  For a
            # split free variable the plus part's price is the variable's.
            costs_ext = np.concatenate((lp.c, np.zeros(lp.m)))
            y_dual = token.factor.btran(costs_ext[token.basis])
            d_canon = lp.c - lp.A.rmatvec(y_dual)
            solution.reduced_costs = d_canon[lp.plus_index]
            # Row duals in canonical order (<= rows then == rows), min-sense;
            # the column-generation pricing oracle consumes these.
            solution.duals = y_dual.copy()
        return solution, token


def resolve_appended(
    form: StandardForm,
    previous: Optional[WarmStart],
    max_iter: Optional[int] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[SimplexSolver, Solution, Optional[WarmStart]]:
    """Re-lower a form grown by appends, migrate the old basis onto it, solve.

    The "append and rewarm" step shared by the column-generation restricted
    master (re-solved after column and row admissions) and the
    branch-and-bound root cut loop (re-solved after cut rows are appended).
    ``previous`` is the optimal basis of the form before the append with its
    canonical LP; :func:`extend_warm_basis` carries it across the appended
    columns and rows, and the solve starts from it (cold when ``previous``
    is ``None`` or the two lowerings are not related by an append).
    Returns the solver, whose canonical structure later solves of ``form``
    reuse, the solution, and the warm start for the next append (``None``
    when the solve produced no basis).
    """
    solver = SimplexSolver(form, max_iter=max_iter or 100_000)
    lp = solver._ensure_canonical(form.lb, form.ub)
    warm = None if previous is None else extend_warm_basis(previous[0], previous[1], lp)
    solution, token = solver.solve(warm_basis=warm, deadline=deadline)
    return solver, solution, None if token is None else (token, lp)


def solve_standard_form(
    form: StandardForm,
    max_iter: int = 100_000,
    deadline: Optional[Deadline] = None,
) -> Solution:
    """Solve the LP relaxation of a :class:`StandardForm` with the simplex.

    Integrality markers are ignored; use
    :func:`repro.optim.branch_and_bound.solve_milp` for exact integer solves.
    """
    solution, _ = SimplexSolver(form, max_iter=max_iter).solve(deadline=deadline)
    return solution
