"""Static analysis of lowered :class:`StandardForm` models.

The placement formulations of the paper (Linear programs 2/3 and the MILP
variants) are only trustworthy when the matrices handed to the solvers are
well-formed -- and the presolve/cut/decomposition work queued on the roadmap
mutates models programmatically, multiplying the ways to build a silently
broken LP.  This module inspects a lowered form *without solving it* and
emits structured :class:`Diagnostic` records.

The analyzer validates what presolve cannot reason about (shapes, dtypes,
non-finite data, coefficient scaling).  Everything that needs reasoning
about rows and columns over the variable bounds -- infeasible, redundant,
duplicate and forcing rows, crossed bounds, integer windows with no integer,
columns in no row -- is decided by :func:`repro.optim.presolve.presolve`
alone: when validation finds no error, the analyzer dry-runs presolve and
reports its verdict, so the two can never disagree.

Rule catalogue (rule id -- severity -- meaning):

=========================  =======  =========================================
``shape-mismatch``         error    array lengths / matrix shapes disagree
``dtype``                  error    non-float data in ``c``/``b``/bounds
``nonfinite-objective``    error    NaN or +/-Inf objective coefficient
``nonfinite-matrix``       error    NaN or +/-Inf stored matrix entry
``nonfinite-rhs``          error    NaN or +/-Inf right-hand side
``nan-bound``              error    NaN variable bound
``scaling-row``            warning  max/min |a_ij| spread in a row above
                                    :data:`ROW_SPREAD_LIMIT`
``scaling-global``         warning  global coefficient spread above
                                    :data:`GLOBAL_SPREAD_LIMIT`
``presolve-infeasible``    error    the presolve dry run refutes the model
                                    (an unsatisfiable row, crossed bounds,
                                    an integer window with no integer, ...)
``presolve-rows``          info     presolve removes constraint rows (the
                                    first five removed names are listed)
``presolve-cols``          info     presolve fixes variables
``presolve-coeffs``        info     presolve tightens matrix coefficients
=========================  =======  =========================================

Severities: ``error`` findings make ``python -m repro lint-model`` (the
analyzer's command-line front end) exit non-zero; ``warning`` and ``info``
findings are reported but never fail it.  No solve runs the analyzer:
NaN/Inf model data is rejected where it enters (``Variable``,
:meth:`repro.optim.model.Model.to_standard_form` and the
``SolverSession.update_*`` patches), and a solve's own presolve (on by
default) refutes what the dry run would.

The analyzer never densifies, but the dry run costs a full presolve: on a
2-vCPU Xeon host :func:`analyze_form` takes about 9 ms on the pop10 LP2
(158 columns) and about 110 ms on the pop15 LP2 (1,963 columns), about
three times the validation passes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.optim import instrumentation as instr
from repro.optim.model import StandardForm

__all__ = [
    "Diagnostic",
    "ERROR",
    "INFO",
    "WARNING",
    "analyze_form",
    "has_errors",
]

#: Diagnostic severities, most severe first.
ERROR, WARNING, INFO = "error", "warning", "info"
_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}

#: Per-row max/min |a_ij| spread above which ``scaling-row`` fires.
ROW_SPREAD_LIMIT = 1e8

#: Global |a_ij| spread above which ``scaling-global`` fires.
GLOBAL_SPREAD_LIMIT = 1e10

#: How many removed constraint names a ``presolve-rows`` finding lists.
_NAMES_LISTED = 5


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
# Validation passes
# ---------------------------------------------------------------------------


def _check_shapes(form: StandardForm, out: List[Diagnostic]) -> bool:
    """Validate array shapes/dtypes; False skips every later pass."""
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
        rows, cols, vals = matrix.indices, matrix.col_ids(), matrix.data
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


def _check_scaling(form: StandardForm, out: List[Diagnostic]) -> None:
    global_min = math.inf
    global_max = 0.0
    for label, matrix, m in (
        ("ub", form.A_ub, int(form.b_ub.shape[0])),
        ("eq", form.A_eq, int(form.b_eq.shape[0])),
    ):
        rows, mags = matrix.indices, np.abs(matrix.data)
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
# Presolve dry run and entry points
# ---------------------------------------------------------------------------


def _check_presolve(form: StandardForm, out: List[Diagnostic]) -> None:
    """Dry-run presolve; report its refutation and what it would remove."""
    # A top-level import would cycle: presolve -> resilience -> analysis.
    from repro.optim.presolve import presolve

    reduced, _ = presolve(form)
    if reduced.proven_infeasible:
        out.append(
            Diagnostic(
                ERROR,
                "presolve-infeasible",
                f"presolve refutes the model: {reduced.infeasible_reason}",
            )
        )
    if reduced.rows_removed:
        m_total = int(form.b_ub.shape[0] + form.b_eq.shape[0])
        gone = [name for name in form.row_map if name not in reduced.row_map]
        named = ", ".join(repr(name) for name in gone[:_NAMES_LISTED])
        if len(gone) > _NAMES_LISTED:
            named += f", ... {len(gone) - _NAMES_LISTED} more"
        out.append(
            Diagnostic(
                INFO,
                "presolve-rows",
                f"presolve removes {reduced.rows_removed} of {m_total} constraint rows"
                + (f": {named}" if named else ""),
            )
        )
    if reduced.cols_fixed:
        out.append(
            Diagnostic(
                INFO,
                "presolve-cols",
                f"presolve fixes {reduced.cols_fixed} of {form.num_vars} variables",
            )
        )
    if reduced.coeffs_tightened:
        out.append(
            Diagnostic(
                INFO,
                "presolve-coeffs",
                f"presolve tightens {reduced.coeffs_tightened} matrix coefficients",
            )
        )


def analyze_form(form: StandardForm) -> List[Diagnostic]:
    """Run every analyzer rule over ``form``; findings sorted by severity.

    The structural pass runs first; when shapes are inconsistent the later
    passes are skipped (they would index out of range) and only the
    structural findings are returned.  The presolve dry run runs only on a
    form the validation passes found no error in.
    """
    out: List[Diagnostic] = []
    if _check_shapes(form, out):
        _check_finite(form, out)
        _check_scaling(form, out)
        if not has_errors(out):
            _check_presolve(form, out)
    out.sort(key=lambda d: (_SEVERITY_RANK[d.severity], d.rule, d.block, d.row, d.col))
    instr.add("analyzer_runs")
    instr.add("analyzer_findings", len(out))
    return out
