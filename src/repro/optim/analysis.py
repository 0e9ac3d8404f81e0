"""Pre-solve static analysis of lowered :class:`StandardForm` models.

The placement formulations of the paper (Linear programs 2/3 and the MILP
variants) are only trustworthy when the matrices handed to the solvers are
well-formed -- and the presolve/cut/decomposition work queued on the roadmap
mutates models programmatically, multiplying the ways to build a silently
broken LP.  This module inspects a lowered form *without solving it* and
emits structured :class:`Diagnostic` records.

Rule catalogue (rule id -- severity -- meaning):

=========================  =======  =========================================
``shape-mismatch``         error    array lengths / matrix shapes disagree
``dtype``                  error    non-float data in ``c``/``b``/bounds
``nonfinite-objective``    error    NaN or +/-Inf objective coefficient
``nonfinite-matrix``       error    NaN or +/-Inf stored matrix entry
``nonfinite-rhs``          error    NaN or +/-Inf right-hand side
``nan-bound``              error    NaN variable bound
``bounds-cross``           error    ``lb[j] > ub[j]``
``row-infeasible``         error    row unsatisfiable for *any* point inside
                                    the variable bounds (empty rows with a
                                    contradictory rhs included)
``integrality-empty``      error    integer variable whose bound interval
                                    contains no integer (fractional fixed
                                    bounds included)
``parallel-inconsistent``  error    two parallel ``==`` rows with
                                    contradictory right-hand sides
``empty-row``              warning  all-zero row that is trivially satisfied
``duplicate-row``          warning  duplicate / parallel rows in one block
``scaling-row``            warning  max/min |a_ij| spread in a row above
                                    :data:`ROW_SPREAD_LIMIT`
``scaling-global``         warning  global coefficient spread above
                                    :data:`GLOBAL_SPREAD_LIMIT`
``row-redundant``          info     row implied by the variable bounds alone
``dangling-column``        info     variable in no constraint row (warning
                                    when its objective pushes it onto an
                                    infinite bound, i.e. certain
                                    unboundedness if the rest is feasible)
=========================  =======  =========================================

Severities: ``error`` findings make ``check="strict"`` solves raise
:class:`~repro.optim.errors.ModelAnalysisError`; ``warning`` and ``info``
findings are reported through :mod:`repro.optim.diagnostics` under
``check="warn"`` but never block a solve.

The analyzer never densifies: every pass works on the CSC arrays in
O(nnz log nnz) time, so it is safe to leave ``check="warn"`` on in
production solve loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.optim import instrumentation as instr
from repro.optim._types import FloatArray, IntArray
from repro.optim.errors import ModelAnalysisError
from repro.optim.model import StandardForm
from repro.optim.sparse import SparseMatrix

__all__ = [
    "CHECK_MODES",
    "Diagnostic",
    "ERROR",
    "INFO",
    "WARNING",
    "analyze_form",
    "coo_triplets",
    "enforce",
    "has_errors",
    "row_activity_range",
    "row_signatures",
]

#: Diagnostic severities, most severe first.
ERROR, WARNING, INFO = "error", "warning", "info"
_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}

#: Solver option values accepted for ``check=``.
CHECK_MODES = ("off", "warn", "strict")

#: Per-row max/min |a_ij| spread above which ``scaling-row`` fires.
ROW_SPREAD_LIMIT = 1e8

#: Global |a_ij| spread above which ``scaling-global`` fires.
GLOBAL_SPREAD_LIMIT = 1e10

#: Tolerance used when comparing bound-implied activities against rhs values
#: and when matching parallel rows.
_TOL = 1e-9


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static model analyzer.

    ``block`` is ``"ub"`` / ``"eq"`` for row-indexed findings, ``"var"`` for
    column-indexed ones and ``""`` for model-level findings; ``row`` / ``col``
    are ``-1`` when not applicable.
    """

    severity: str
    rule: str
    message: str
    block: str = ""
    row: int = -1
    col: int = -1

    def __str__(self) -> str:
        where = ""
        if self.block and self.row >= 0:
            where = f" [{self.block} row {self.row}]"
        elif self.block == "var" and self.col >= 0:
            where = f" [col {self.col}]"
        return f"{self.severity}: {self.rule}: {self.message}{where}"


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any finding carries ``error`` severity."""
    return any(d.severity == ERROR for d in diagnostics)


# ---------------------------------------------------------------------------
# COO extraction (shared by the row-wise passes)
# ---------------------------------------------------------------------------


def _coo(matrix: SparseMatrix) -> Tuple[IntArray, IntArray, FloatArray]:
    """``(rows, cols, vals)`` triplets of the stored entries of ``matrix``."""
    return (matrix.indices, matrix.col_ids(), matrix.data)


#: Public alias: the presolve pass (:mod:`repro.optim.presolve`) reuses the
#: analyzer's COO extraction as its detection substrate.
coo_triplets = _coo


# ---------------------------------------------------------------------------
# Individual rule passes
# ---------------------------------------------------------------------------


def _check_shapes(form: StandardForm, out: List[Diagnostic]) -> bool:
    """Validate array shapes/dtypes; False aborts the row/col passes."""
    n = int(form.c.shape[0]) if form.c.ndim == 1 else -1
    ok = True
    if form.c.ndim != 1:
        out.append(Diagnostic(ERROR, "shape-mismatch", f"c must be a vector, got ndim={form.c.ndim}"))
        ok = False
    for label, vec, expected in (
        ("lb", form.lb, n),
        ("ub", form.ub, n),
        ("integrality", form.integrality, n),
    ):
        if vec.ndim != 1 or (expected >= 0 and vec.shape[0] != expected):
            out.append(
                Diagnostic(
                    ERROR,
                    "shape-mismatch",
                    f"{label} has shape {vec.shape}, expected ({expected},) to match c",
                )
            )
            ok = False
    if form.names and n >= 0 and len(form.names) != n:
        out.append(
            Diagnostic(
                ERROR,
                "shape-mismatch",
                f"{len(form.names)} variable names for {n} columns",
            )
        )
        ok = False
    for label, matrix, rhs in (("ub", form.A_ub, form.b_ub), ("eq", form.A_eq, form.b_eq)):
        m_rows, m_cols = matrix.shape
        if rhs.ndim != 1 or rhs.shape[0] != m_rows:
            out.append(
                Diagnostic(
                    ERROR,
                    "shape-mismatch",
                    f"b_{label} has shape {rhs.shape}, expected ({m_rows},) to match A_{label}",
                )
            )
            ok = False
        if n >= 0 and m_cols != n:
            out.append(
                Diagnostic(
                    ERROR,
                    "shape-mismatch",
                    f"A_{label} has {m_cols} columns for {n} variables",
                )
            )
            ok = False
    for label, vec in (("c", form.c), ("b_ub", form.b_ub), ("b_eq", form.b_eq), ("lb", form.lb), ("ub", form.ub)):
        if not np.issubdtype(vec.dtype, np.floating):
            out.append(
                Diagnostic(ERROR, "dtype", f"{label} has dtype {vec.dtype}, expected a float dtype")
            )
            ok = False
    return ok


def _check_finite(form: StandardForm, out: List[Diagnostic]) -> None:
    bad_c = np.flatnonzero(~np.isfinite(form.c))
    for j in bad_c:
        out.append(
            Diagnostic(
                ERROR,
                "nonfinite-objective",
                f"objective coefficient of {_var_label(form, int(j))} is {form.c[j]}",
                block="var",
                col=int(j),
            )
        )
    for label, matrix in (("ub", form.A_ub), ("eq", form.A_eq)):
        rows, cols, vals = _coo(matrix)
        bad = np.flatnonzero(~np.isfinite(vals))
        for k in bad:
            out.append(
                Diagnostic(
                    ERROR,
                    "nonfinite-matrix",
                    f"A_{label}[{int(rows[k])}, {int(cols[k])}] is {vals[k]}",
                    block=label,
                    row=int(rows[k]),
                    col=int(cols[k]),
                )
            )
    for label, rhs in (("ub", form.b_ub), ("eq", form.b_eq)):
        for i in np.flatnonzero(~np.isfinite(rhs)):
            out.append(
                Diagnostic(
                    ERROR,
                    "nonfinite-rhs",
                    f"b_{label}[{int(i)}] is {rhs[i]}",
                    block=label,
                    row=int(i),
                )
            )
    for label, vec in (("lower", form.lb), ("upper", form.ub)):
        for j in np.flatnonzero(np.isnan(vec)):
            out.append(
                Diagnostic(
                    ERROR,
                    "nan-bound",
                    f"{label} bound of {_var_label(form, int(j))} is NaN",
                    block="var",
                    col=int(j),
                )
            )


def _var_label(form: StandardForm, j: int) -> str:
    if 0 <= j < len(form.names):
        return f"variable {form.names[j]!r} (col {j})"
    return f"column {j}"


def _check_bounds(form: StandardForm, out: List[Diagnostic]) -> None:
    with np.errstate(invalid="ignore"):
        crossed = np.flatnonzero(form.lb > form.ub)
    for j in crossed:
        out.append(
            Diagnostic(
                ERROR,
                "bounds-cross",
                f"{_var_label(form, int(j))} has lb={form.lb[j]} > ub={form.ub[j]}",
                block="var",
                col=int(j),
            )
        )


def _check_integrality(form: StandardForm, out: List[Diagnostic]) -> None:
    integral = np.flatnonzero(np.asarray(form.integrality) != 0)
    for j in integral:
        lo, hi = float(form.lb[j]), float(form.ub[j])
        if not (math.isfinite(lo) or math.isfinite(hi)):
            continue
        lo_int = math.ceil(lo - _TOL) if math.isfinite(lo) else -math.inf
        hi_int = math.floor(hi + _TOL) if math.isfinite(hi) else math.inf
        if lo_int > hi_int:
            detail = (
                f"fixed to the fractional value {lo}"
                if lo == hi
                else f"bounds [{lo}, {hi}] contain no integer"
            )
            out.append(
                Diagnostic(
                    ERROR,
                    "integrality-empty",
                    f"integer {_var_label(form, int(j))}: {detail}",
                    block="var",
                    col=int(j),
                )
            )


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


#: Public alias: row activity ranges are the read-only half of redundant-row
#: elimination and coefficient tightening in :mod:`repro.optim.presolve`.
row_activity_range = _row_activity_range


def _check_rows(form: StandardForm, out: List[Diagnostic]) -> None:
    """Empty / trivially infeasible / bound-redundant rows, per block."""
    for label, matrix, rhs, is_eq in (
        ("ub", form.A_ub, form.b_ub, False),
        ("eq", form.A_eq, form.b_eq, True),
    ):
        m = int(rhs.shape[0])
        if m == 0:
            continue
        rows, cols, vals = _coo(matrix)
        nz = (vals != 0.0) & np.isfinite(vals)
        nnz_per_row = np.bincount(rows[nz], minlength=m) if rows.size else np.zeros(m, dtype=np.int64)
        lo, hi = _row_activity_range(rows, vals, cols, form.lb, form.ub, m)
        scale = 1.0 + np.abs(rhs)
        for i in range(m):
            b = float(rhs[i])
            if not math.isfinite(b):
                continue  # reported by nonfinite-rhs
            tol = _TOL * float(scale[i])
            if nnz_per_row[i] == 0:
                violated = (b < -tol) if not is_eq else (abs(b) > tol)
                if violated:
                    out.append(
                        Diagnostic(
                            ERROR,
                            "row-infeasible",
                            f"empty {label} row {i} requires 0 "
                            f"{'==' if is_eq else '<='} {b}",
                            block=label,
                            row=i,
                        )
                    )
                else:
                    out.append(
                        Diagnostic(
                            WARNING,
                            "empty-row",
                            f"{label} row {i} has no nonzero coefficient",
                            block=label,
                            row=i,
                        )
                    )
                continue
            if lo[i] > b + tol:
                out.append(
                    Diagnostic(
                        ERROR,
                        "row-infeasible",
                        f"{label} row {i}: minimum activity {lo[i]:g} over the variable "
                        f"bounds already exceeds rhs {b:g}",
                        block=label,
                        row=i,
                    )
                )
            elif is_eq and hi[i] < b - tol:
                out.append(
                    Diagnostic(
                        ERROR,
                        "row-infeasible",
                        f"eq row {i}: maximum activity {hi[i]:g} over the variable "
                        f"bounds cannot reach rhs {b:g}",
                        block=label,
                        row=i,
                    )
                )
            elif not is_eq and hi[i] <= b + tol and math.isfinite(hi[i]):
                out.append(
                    Diagnostic(
                        INFO,
                        "row-redundant",
                        f"ub row {i}: maximum activity {hi[i]:g} over the variable "
                        f"bounds never exceeds rhs {b:g}; the row is implied",
                        block=label,
                        row=i,
                    )
                )


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


#: Public alias: parallel-row signatures drive duplicate/dominated row
#: removal in :mod:`repro.optim.presolve`.
row_signatures = _row_signatures


def _check_duplicate_rows(form: StandardForm, out: List[Diagnostic]) -> None:
    for label, matrix, rhs, is_eq in (
        ("ub", form.A_ub, form.b_ub, False),
        ("eq", form.A_eq, form.b_eq, True),
    ):
        m = int(rhs.shape[0])
        if m < 2:
            continue
        rows, cols, vals = _coo(matrix)
        for members in _row_signatures(rows, cols, vals).values():
            positive = [(i, lead) for i, lead in members if lead > 0]
            # For inequality rows only same-direction duplicates are redundant
            # (opposite-direction parallels bracket a range); equality rows
            # are parallel regardless of the leading sign.
            dup_sets = [members] if is_eq else [positive, [mm for mm in members if mm[1] < 0]]
            for dup in dup_sets:
                if len(dup) < 2:
                    continue
                first, lead0 = dup[0]
                scaled0 = float(rhs[first]) / lead0
                for other, lead in dup[1:]:
                    scaled = float(rhs[other]) / lead
                    if is_eq and abs(scaled - scaled0) > _TOL * (1.0 + abs(scaled0)):
                        out.append(
                            Diagnostic(
                                ERROR,
                                "parallel-inconsistent",
                                f"eq rows {first} and {other} are parallel with "
                                f"contradictory right-hand sides "
                                f"({scaled0:g} vs {scaled:g} after scaling)",
                                block=label,
                                row=other,
                            )
                        )
                    else:
                        out.append(
                            Diagnostic(
                                WARNING,
                                "duplicate-row",
                                f"{label} row {other} is parallel to row {first}"
                                + ("" if is_eq else "; the looser one is redundant"),
                                block=label,
                                row=other,
                            )
                        )


def _check_columns(form: StandardForm, out: List[Diagnostic]) -> None:
    n = int(form.c.shape[0])
    if n == 0:
        return
    touched = np.zeros(n, dtype=bool)
    for matrix in (form.A_ub, form.A_eq):
        rows, cols, vals = _coo(matrix)
        live = (vals != 0.0) & np.isfinite(vals)
        touched[cols[live]] = True
    for j in np.flatnonzero(~touched):
        c_j = float(form.c[j])
        unbounded = (c_j > 0 and np.isneginf(form.lb[j])) or (
            c_j < 0 and np.isposinf(form.ub[j])
        )
        if unbounded:
            out.append(
                Diagnostic(
                    WARNING,
                    "dangling-column",
                    f"{_var_label(form, int(j))} appears in no constraint and its "
                    "objective pushes it onto an infinite bound (the model is "
                    "unbounded if it is feasible at all)",
                    block="var",
                    col=int(j),
                )
            )
        else:
            out.append(
                Diagnostic(
                    INFO,
                    "dangling-column",
                    f"{_var_label(form, int(j))} appears in no constraint row",
                    block="var",
                    col=int(j),
                )
            )


def _check_scaling(form: StandardForm, out: List[Diagnostic]) -> None:
    global_min = math.inf
    global_max = 0.0
    for label, matrix, m in (
        ("ub", form.A_ub, int(form.b_ub.shape[0])),
        ("eq", form.A_eq, int(form.b_eq.shape[0])),
    ):
        rows, _, vals = _coo(matrix)
        mags = np.abs(vals)
        live = (mags > 0.0) & np.isfinite(mags)
        rows, mags = rows[live], mags[live]
        if not rows.size:
            continue
        global_min = min(global_min, float(mags.min()))
        global_max = max(global_max, float(mags.max()))
        row_max = np.zeros(m)
        row_min = np.full(m, math.inf)
        np.maximum.at(row_max, rows, mags)
        np.minimum.at(row_min, rows, mags)
        present = row_max > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = np.where(present, row_max / row_min, 0.0)
        for i in np.flatnonzero(spread > ROW_SPREAD_LIMIT):
            out.append(
                Diagnostic(
                    WARNING,
                    "scaling-row",
                    f"{label} row {int(i)} mixes coefficient magnitudes "
                    f"{row_min[i]:.3g} .. {row_max[i]:.3g} "
                    f"(spread {spread[i]:.2g} > {ROW_SPREAD_LIMIT:g})",
                    block=label,
                    row=int(i),
                )
            )
    if global_max > 0.0 and math.isfinite(global_min):
        spread = global_max / global_min
        if spread > GLOBAL_SPREAD_LIMIT:
            out.append(
                Diagnostic(
                    WARNING,
                    "scaling-global",
                    f"matrix coefficient magnitudes span {global_min:.3g} .. "
                    f"{global_max:.3g} (spread {spread:.2g} > {GLOBAL_SPREAD_LIMIT:g}); "
                    "consider rescaling rows or units",
                )
            )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def analyze_form(form: StandardForm) -> List[Diagnostic]:
    """Run every analyzer rule over ``form``; findings sorted by severity.

    The structural pass runs first; when shapes are inconsistent the
    row/column passes are skipped (they would index out of range) and only
    the structural findings are returned.
    """
    out: List[Diagnostic] = []
    structurally_sound = _check_shapes(form, out)
    if structurally_sound:
        _check_finite(form, out)
        _check_bounds(form, out)
        _check_integrality(form, out)
        _check_rows(form, out)
        _check_duplicate_rows(form, out)
        _check_columns(form, out)
        _check_scaling(form, out)
    out.sort(key=lambda d: (_SEVERITY_RANK[d.severity], d.rule, d.block, d.row, d.col))
    instr.add("analyzer_runs")
    instr.add("analyzer_findings", len(out))
    return out


def enforce(
    form: StandardForm,
    mode: str,
    label: str = "model",
    diagnostics: Optional[List[Diagnostic]] = None,
) -> List[Diagnostic]:
    """Analyze ``form`` under solver option semantics.

    ``mode`` is one of :data:`CHECK_MODES`: ``"off"`` skips the analysis
    entirely, ``"warn"`` reports every finding through
    :mod:`repro.optim.diagnostics`, and ``"strict"`` additionally raises
    :class:`~repro.optim.errors.ModelAnalysisError` when error-severity
    findings are present.  Pre-computed ``diagnostics`` may be passed to
    avoid re-analyzing.  Returns the findings (empty under ``"off"``).
    """
    from repro.optim import diagnostics as reporter

    if mode not in CHECK_MODES:
        raise ModelAnalysisError(
            f"unknown check mode {mode!r}; expected one of {CHECK_MODES}"
        )
    if mode == "off":
        return []
    found = analyze_form(form) if diagnostics is None else diagnostics
    if found:
        reporter.report(found, label=label)
    errors = [d for d in found if d.severity == ERROR]
    if mode == "strict" and errors:
        summary = "; ".join(str(d) for d in errors[:5])
        if len(errors) > 5:
            summary += f"; ... {len(errors) - 5} more"
        raise ModelAnalysisError(
            f"static analysis found {len(errors)} error(s) in {label!r}: {summary}",
            diagnostics=tuple(errors),
        )
    return found
