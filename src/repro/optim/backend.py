"""Backend selection, option plumbing and incremental re-solve sessions.

The rest of the library never imports a solver directly; it calls
:func:`solve_model` (usually through :meth:`repro.optim.Model.solve`) and the
dispatcher picks an appropriate backend:

* ``"scipy"`` -- HiGHS via SciPy, fastest, used by default when available.
* ``"simplex"`` -- the in-house sparse revised simplex; ignores integrality
  unless wrapped by branch and bound.
* ``"branch-and-bound"`` -- the in-house MILP solver (revised simplex at
  each node, warm-started from the parent's factorized basis).
* ``"auto"`` -- ``scipy`` when importable, otherwise the in-house solvers.

Backend / option matrix
-----------------------

Option names are unified across backends; passing an option a backend does
not recognize raises :class:`~repro.optim.errors.SolverError` instead of
being silently dropped:

==============  ========  =========  ==================
Option          scipy     simplex    branch-and-bound
==============  ========  =========  ==================
``time_limit``  yes       yes        yes
``mip_gap``     yes(MIP)  --         yes
``max_iter``    yes(LP)   yes        yes (node LPs)
``max_nodes``   --        --         yes
``presolve``    yes       yes        yes
``fallback``    yes       yes        yes
==============  ========  =========  ==================

``mip_gap`` is a *relative* optimality gap everywhere (HiGHS
``mip_rel_gap`` semantics).  ``max_iter`` bounds simplex iterations, and on
the branch-and-bound backend it is forwarded to every node LP solve.  HiGHS
and column generation return ``ITERATION_LIMIT`` when it runs out; the
in-house simplex raises :class:`~repro.optim.errors.SolverError`, which
``fallback="auto"`` fails over.

No option picks the in-house algorithms; the size of the LP does, and
branch and bound's root cut rounds and fathoming gap are constants of
:mod:`repro.optim.branch_and_bound`.  The primal simplex prices with devex
from :data:`repro.optim.simplex._DEVEX_MIN_COLS` canonical columns and with
Dantzig's rule below (see :mod:`repro.optim.simplex`), and the in-house
backends solve a lowered LP by column generation from
:data:`repro.optim.colgen._COLGEN_MIN_COLS` columns
(:func:`repro.optim.colgen.decomposes`).  Column generation solves LPs
only: the ``simplex`` backend decomposes a wide LP relaxation, while a
MILP of any width on ``branch-and-bound`` goes through presolve and
:func:`repro.optim.branch_and_bound.solve_milp`.  On a
:class:`SolverSession` the column-generation path skips presolve on purpose
(presolve reindexes columns, which would invalidate
:class:`repro.optim.colgen.ColGenHints` indices and in-place patches) and
keeps the active column set plus warm basis across re-solves.

``time_limit`` (seconds, positive and finite -- anything else raises
``ValueError`` at option-checking time) is turned into a single
:class:`repro.optim.resilience.Deadline` here in the dispatcher and threaded
through presolve, cut separation and the backend's own iteration loops, so
every layer agrees on when the budget expires.  A solve that runs out of
budget returns the best incumbent found so far with the honest status
``TIME_LIMIT`` (never conflated with ``NODE_LIMIT``).

``fallback`` (``"off"`` by default, ``"auto"`` to enable) arms backend
failover: when the resolved backend raises :class:`SolverError` or returns
an ``ERROR`` status, the dispatcher retries the same lowered form on the
other solver family (``scipy`` <-> in-house), and as a last resort degrades
to :func:`repro.optim.resilience.greedy_form_solve`.  Every hop enforces the
integrality the primary did, so a failed-over ``simplex`` solve still
answers the LP relaxation.  A failed-over solution carries a
:class:`repro.optim.solution.Degradation` record naming each hop, the
weakened guarantee, and the error messages that forced it.

``presolve`` (``"on"`` by default, ``"off"`` to disable) runs
:func:`repro.optim.presolve.presolve` over the lowered form before any
backend sees it and maps the solution back afterwards; integer-only
reductions are applied exactly when the resolved backend will enforce
integrality (i.e. not on the ``simplex`` backend, which solves the LP
relaxation).

Warm starts and re-solves
-------------------------

:class:`SolverSession` lowers a model to its :class:`StandardForm` once and
then supports in-place parameter updates (constraint coefficients,
right-hand sides, objective coefficients, variable bounds) followed by
re-solves.  On the in-house backends the session also threads the previous
optimal basis into the next solve (see
:class:`repro.optim.simplex.SimplexSolver`), so a re-solve after a small
data change typically skips simplex phase 1.  The SciPy backend has no warm
start; sessions still avoid the model re-lowering cost there.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.optim import faultinject
from repro.optim._types import FloatArray
from repro.optim.errors import InfeasibleError, ModelError, SolverError, UnboundedError
from repro.optim.model import Model, StandardForm, Variable
from repro.optim.resilience import Deadline, greedy_form_solve, record_rung
from repro.optim.solution import Degradation, Solution, SolveStatus
from repro.optim.sparse import SparseMatrix

if TYPE_CHECKING:  # pragma: no cover - types only (solvers are imported lazily)
    from repro.optim.colgen import ColGenHints, ColumnGeneration
    from repro.optim.simplex import SimplexSolver, _Basis

#: Canonical backend names accepted by :func:`solve_model`.
BACKENDS = ("auto", "scipy", "simplex", "branch-and-bound")

#: Options each concrete backend honors; anything else raises SolverError.
BACKEND_OPTIONS: Dict[str, FrozenSet[str]] = {
    "scipy": frozenset({"time_limit", "mip_gap", "max_iter", "presolve", "fallback"}),
    "simplex": frozenset({"max_iter", "time_limit", "presolve", "fallback"}),
    "branch-and-bound": frozenset(
        {"max_nodes", "mip_gap", "max_iter", "time_limit", "presolve", "fallback"}
    ),
}


def available_backends() -> List[str]:
    """Return the list of backends usable in this environment."""
    from repro.optim import scipy_backend

    backends = ["simplex", "branch-and-bound"]
    if scipy_backend.is_available():
        backends.insert(0, "scipy")
    return backends


def _resolve_backend(backend: str, is_mip: bool) -> str:
    """Map ``"auto"`` to a concrete backend for this problem class."""
    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend != "auto":
        return backend
    from repro.optim import scipy_backend

    if scipy_backend.is_available():
        return "scipy"
    return "branch-and-bound" if is_mip else "simplex"


def _check_options(backend: str, options: Dict[str, Any]) -> None:
    """Reject option names the resolved backend does not honor.

    Option values are validated here as well, so every entry point (one-shot
    solves, sessions, the session column-generation path) rejects them
    before any solver starts.  A zero, negative or non-finite ``time_limit``
    is always a caller bug: a deadline born expired (or never expiring).
    """
    unknown = set(options) - BACKEND_OPTIONS[backend]
    if unknown:
        raise SolverError(
            f"backend {backend!r} does not recognize option(s) {sorted(unknown)}; "
            f"it honors {sorted(BACKEND_OPTIONS[backend])}"
        )
    time_limit = options.get("time_limit")
    if time_limit is not None:
        try:
            value = float(time_limit)
        except (TypeError, ValueError):
            raise ValueError(
                f"time_limit must be a positive finite number of seconds, "
                f"got {time_limit!r}"
            ) from None
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(
                f"time_limit must be a positive finite number of seconds, "
                f"got {time_limit!r}"
            )


def _pop_presolve_mode(options: Dict[str, Any]) -> str:
    """Extract and validate the dispatcher-level ``presolve`` option."""
    mode = options.pop("presolve", "on")
    if mode not in ("on", "off"):
        raise SolverError(f"presolve option must be 'on' or 'off', got {mode!r}")
    return str(mode)


def _pop_fallback_mode(options: Dict[str, Any]) -> str:
    """Extract and validate the dispatcher-level ``fallback`` option."""
    mode = options.pop("fallback", "off")
    if mode not in ("off", "auto"):
        raise SolverError(f"fallback option must be 'off' or 'auto', got {mode!r}")
    return str(mode)


def _solve_form(
    form: StandardForm,
    is_mip: bool,
    backend: str,
    options: Dict[str, Any],
) -> Solution:
    """Presolve an already-lowered ``StandardForm``, dispatch, postsolve.

    Presolve is applied here -- below :func:`solve_model` and the
    :class:`SolverSession` cold path, above every backend -- so the reduced
    form is what any backend actually solves and the caller transparently
    receives original-space values.  The :class:`SolverSession` warm-simplex
    path bypasses this function on purpose: presolve rebuilds the sparse
    matrices (dropping explicit zeros), which would invalidate the session's
    in-place coefficient patches and warm-start bases.

    The ``simplex`` backend solves the LP relaxation, so integrality counts
    only on the other backends: in presolve's integer reductions and in
    every failover hop alike.
    """
    is_mip = is_mip and backend != "simplex"
    options = dict(options)
    presolve_mode = _pop_presolve_mode(options)
    fallback_mode = _pop_fallback_mode(options)
    time_limit = options.pop("time_limit", None)
    deadline = Deadline(time_limit) if time_limit is not None else None
    dispatch = _run_with_failover if fallback_mode == "auto" else _dispatch_form
    if presolve_mode == "off" or len(form.names) != form.num_vars:
        # Forms without a full name vector cannot round-trip through the
        # value dict; solve them directly.
        return dispatch(form, is_mip, backend, options, deadline)

    from repro.optim.presolve import presolve as run_presolve

    reduced, post = run_presolve(form, integer_aware=is_mip, deadline=deadline)
    if reduced.proven_infeasible:
        return Solution(status=SolveStatus.INFEASIBLE, backend="presolve")
    if reduced.num_vars == 0:
        # Fully solved by presolve (every remaining row was verified
        # feasible against the fixed values before being dropped).
        x = post.restore_point(np.zeros(0))
        values = {name: float(x[i]) for i, name in enumerate(form.names)}
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=form.objective_value(x),
            values=values,
            backend="presolve",
        )
    return post.restore(dispatch(reduced, is_mip, backend, options, deadline))


def _dispatch_form(
    form: StandardForm,
    is_mip: bool,
    backend: str,
    options: Dict[str, Any],
    deadline: Optional[Deadline] = None,
) -> Solution:
    """Dispatch an already-lowered ``StandardForm`` to a concrete backend."""
    if faultinject.ACTIVE:
        faultinject.maybe_fail_backend(backend, SolverError)
    if backend == "scipy":
        from repro.optim import scipy_backend

        if not scipy_backend.is_available():
            raise SolverError("scipy backend requested but scipy is not importable")
        remaining = deadline.remaining_or_none() if deadline is not None else None
        if is_mip:
            return scipy_backend.solve_mip(
                form,
                time_limit=remaining,
                mip_gap=options.get("mip_gap"),
            )
        return scipy_backend.solve_lp(
            form,
            max_iter=options.get("max_iter"),
            time_limit=remaining,
        )
    from repro.optim.colgen import decomposes, solve_form_colgen

    if not is_mip and decomposes(form):
        return solve_form_colgen(form, options=options, deadline=deadline)
    if backend == "simplex":
        from repro.optim.simplex import solve_standard_form

        return solve_standard_form(
            form, max_iter=options.get("max_iter", 100_000), deadline=deadline
        )
    # branch-and-bound
    from repro.optim.branch_and_bound import solve_milp

    return solve_milp(
        form,
        max_nodes=options.get("max_nodes", 100_000),
        mip_gap=options.get("mip_gap"),
        max_iter=options.get("max_iter"),
        deadline=deadline,
    )


def _guarantee_for(status: SolveStatus) -> str:
    """What a failed-over solution with this status still promises."""
    if status in (
        SolveStatus.OPTIMAL,
        SolveStatus.INFEASIBLE,
        SolveStatus.UNBOUNDED,
    ):
        return "optimal"  # a conclusive answer, just from a different solver
    if status.is_limit:
        return "bounded-gap"
    return "feasible-only"


def _run_with_failover(
    form: StandardForm,
    is_mip: bool,
    backend: str,
    options: Dict[str, Any],
    deadline: Optional[Deadline] = None,
    failed: Optional[SolverError] = None,
) -> Solution:
    """``fallback="auto"`` driver: primary backend, alternate family, greedy.

    Each hop is taken when the current backend raises :class:`SolverError`
    or returns an ``ERROR`` status; anything else (including ``TIME_LIMIT``
    and ``INFEASIBLE``) is a real answer and ends the chain.  Option names
    the alternate backend does not honor are simply not read by its
    dispatch branch, so the merged option dict can ride along unchanged.
    ``failed`` is the error the primary backend already raised (a
    :class:`SolverSession` re-solve on its kept state): the chain then
    starts at its first hop instead of running the primary again.
    """
    from repro.optim import scipy_backend

    chain = [backend]
    if backend == "scipy":
        chain.append("branch-and-bound" if is_mip else "simplex")
    elif scipy_backend.is_available():
        chain.append("scipy")
    rungs: List[str] = []
    errors: List[str] = []
    for pos, alt in enumerate(chain):
        succ = chain[pos + 1] if pos + 1 < len(chain) else "greedy"
        try:
            if failed is not None and pos == 0:
                raise failed
            solution = _dispatch_form(form, is_mip, alt, options, deadline)
        except SolverError as exc:
            errors.append(f"{alt}: {exc}")
            rungs.append(f"{alt}->{succ}")
            record_rung(
                "failover",
                f"backend {alt!r} failed ({exc}); failing over to {succ!r}",
            )
            continue
        if solution.status is SolveStatus.ERROR:
            errors.append(f"{alt}: returned status 'error'")
            rungs.append(f"{alt}->{succ}")
            record_rung(
                "failover",
                f"backend {alt!r} returned an error status; failing over to {succ!r}",
            )
            continue
        if rungs:
            solution.degradation = Degradation(
                rungs=tuple(rungs),
                guarantee=_guarantee_for(solution.status),
                errors=tuple(errors),
            )
        return solution
    record_rung(
        "greedy",
        "every real backend failed; degrading to the greedy feasibility heuristic",
    )
    solution = greedy_form_solve(form, deadline=deadline)
    solution.degradation = Degradation(
        rungs=tuple(rungs),
        guarantee="feasible-only",
        errors=tuple(errors),
    )
    return solution


def _raise_for_status(solution: Solution, label: str) -> None:
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(f"model {label!r} is infeasible")
    if solution.status is SolveStatus.UNBOUNDED:
        raise UnboundedError(f"model {label!r} is unbounded")


def solve_model(
    model: Model,
    backend: str = "auto",
    raise_on_infeasible: bool = False,
    **options: Any,
) -> Solution:
    """Solve ``model`` with the requested backend.

    Parameters
    ----------
    model:
        The model to solve.
    backend:
        One of :data:`BACKENDS`.
    raise_on_infeasible:
        When True, infeasible / unbounded statuses raise
        :class:`~repro.optim.errors.InfeasibleError` /
        :class:`~repro.optim.errors.UnboundedError` instead of being returned.
    options:
        Backend-specific options; see :data:`BACKEND_OPTIONS` for the matrix.
        Unrecognized option names raise :class:`SolverError`.
    """
    resolved = _resolve_backend(backend, model.is_mip)
    _check_options(resolved, options)
    solution = _solve_form(model.to_standard_form(), model.is_mip, resolved, options)
    if raise_on_infeasible:
        _raise_for_status(solution, model.name)
    return solution


class SolverSession:
    """Incremental re-solve session over a model lowered exactly once.

    The session snapshots the model's :class:`StandardForm` at construction
    and exposes in-place mutators for the data that parameterized
    experiments change between solves -- constraint coefficients (one, or a
    row's worth in one batch) and right-hand sides (``PPME*(x, h, k)``'s
    drifting traffic volumes), objective coefficients and variable bounds.
    Calling :meth:`solve` then re-solves against the patched matrices,
    warm-starting from the previous optimal basis on the in-house simplex
    backend.  A coefficient patch that keeps the sparsity pattern refreshes
    the simplex's canonical LP in place; one that grows the pattern has it
    re-lowered.

    Notes
    -----
    * Structural edits (new variables or constraints) are not supported;
      rebuild the session (the model is only read at construction).
    * Updates are expressed in the *model's* orientation: for a ``>=``
      constraint lowered into negated ``<=`` form, the session applies the
      sign flip internally via :attr:`StandardForm.row_map`.
    * Each successful solve is attached back to the model, so
      :meth:`Model.value` keeps working after session re-solves.
    """

    def __init__(self, model: Model, backend: str = "auto", **options: Any) -> None:
        self.model = model
        self._is_mip = model.is_mip
        self.backend = _resolve_backend(backend, self._is_mip)
        _check_options(self.backend, options)
        self.options: Dict[str, Any] = dict(options)
        self.form = model.to_standard_form()
        self._sign = -1.0 if self.form.maximize else 1.0
        self._simplex: Optional["SimplexSolver"] = None  # lazy, for warm starts
        self._basis: Optional["_Basis"] = None
        self._colgen: Optional["ColumnGeneration"] = None  # lazy decomposition driver
        self._colgen_hints: Optional["ColGenHints"] = None
        self._coeffs_dirty = False  # matrix coefficients patched since last solve
        self._pattern_grew = False  # ... and a patch added a stored entry
        self.solves = 0

    def set_colgen_hints(self, hints: Optional["ColGenHints"]) -> None:
        """Install model-specific column-generation hints for this session.

        The hints (initial columns, expansion order, dual completion -- see
        :class:`repro.optim.colgen.ColGenHints`) are consumed when an LP's
        form is wide enough to decompose (:func:`repro.optim.colgen.decomposes`)
        and are indexed against this session's *unpresolved* lowered form,
        which is why the session column-generation path never runs presolve.
        Installing new hints discards the current decomposition state
        (active columns and warm basis); passing ``None`` clears them.
        """
        self._colgen_hints = hints
        self._colgen = None

    # -- update surface ----------------------------------------------------
    def _row(self, name: str) -> Tuple[SparseMatrix, FloatArray, int, float]:
        try:
            kind, row, sign = self.form.row_map[name]
        except KeyError:
            raise ModelError(
                f"no constraint named {name!r} in session over model {self.model.name!r}"
            ) from None
        if kind == "dup":
            raise ModelError(
                f"constraint name {name!r} is shared by several constraints in model "
                f"{self.model.name!r}; rename them to address one for updates"
            )
        if kind == "ub":
            return self.form.A_ub, self.form.b_ub, row, sign
        return self.form.A_eq, self.form.b_eq, row, sign

    def _var_index(self, var: Union[Variable, str]) -> int:
        if isinstance(var, Variable):
            return var.index
        return self.model.get_var(var).index

    def update_constraint_rhs(self, name: str, rhs: float) -> None:
        """Set the right-hand side of constraint ``name`` (model orientation)."""
        value = float(rhs)
        if not math.isfinite(value):
            raise ModelError(f"constraint {name!r}: right-hand side must be finite, got {value}")
        _, b, row, sign = self._row(name)
        b[row] = sign * value

    def update_constraint_coeff(
        self, name: str, var: Union[Variable, str], coeff: float
    ) -> None:
        """Set one coefficient of constraint ``name`` (model orientation).

        A batch of one: see :meth:`update_constraint_coeffs`.
        """
        self.update_constraint_coeffs(name, (var,), (coeff,))

    def update_constraint_coeffs(
        self,
        name: str,
        variables: Sequence[Union[Variable, str]],
        coeffs: Sequence[float],
    ) -> None:
        """Set the coefficients of ``variables`` in constraint ``name`` (model orientation).

        Every value and variable is checked before any is written, so a
        rejected batch leaves the matrix as it was.  The row is mapped once
        and the patch lands directly in the lowered sparse matrix
        (:meth:`SparseMatrix.set_row`): a coefficient that is part of the
        sparsity pattern -- explicit zeros included -- is written in place,
        found for the whole batch by one vectorized search, while a
        brand-new nonzero grows the pattern.  The result equals one
        :meth:`update_constraint_coeff` call per variable, in order.
        """
        values = np.array(coeffs, dtype=float)
        if values.shape != (len(variables),):
            raise ModelError(
                f"constraint {name!r}: {len(variables)} variables but {values.size} coefficients"
            )
        finite = np.isfinite(values)
        if not finite.all():
            raise ModelError(
                f"constraint {name!r}: coefficient must be finite, got {values[~finite][0]}"
            )
        A, _, row, sign = self._row(name)
        cols = np.fromiter(map(self._var_index, variables), dtype=np.int64, count=len(variables))
        if A.set_row(row, cols, sign * values):
            self._pattern_grew = True
        self._coeffs_dirty = True

    def update_objective_coeff(self, var: Union[Variable, str], coeff: float) -> None:
        """Set the objective coefficient of ``var`` (model sense)."""
        value = float(coeff)
        if not math.isfinite(value):
            raise ModelError(f"objective coefficient must be finite, got {value}")
        self.form.c[self._var_index(var)] = self._sign * value

    def update_var_bounds(
        self,
        var: Union[Variable, str],
        lb: Optional[float] = None,
        ub: Optional[float] = None,
    ) -> None:
        """Tighten or relax the bounds of ``var`` for subsequent solves.

        Infinite bounds are legal; a NaN bound raises :class:`ModelError`.
        """
        index = self._var_index(var)
        if (lb is not None and math.isnan(lb)) or (ub is not None and math.isnan(ub)):
            raise ModelError(
                f"variable {self.model.variables[index].name!r}: NaN bound (lb={lb}, ub={ub})"
            )
        if lb is not None:
            self.form.lb[index] = float(lb)
        if ub is not None:
            self.form.ub[index] = float(ub)

    # -- solving -----------------------------------------------------------
    def _solve_colgen(self, merged: Dict[str, Any], deadline: Optional[Deadline]) -> Solution:
        """Column-generation path: one driver kept across re-solves.

        The :class:`repro.optim.colgen.ColumnGeneration` driver stays alive
        so the active column set and the master's warm basis survive
        re-solves; presolve is skipped because it reindexes columns, which
        would break both the hint indices and the in-place patches.
        """
        from repro.optim.colgen import ColumnGeneration

        if self._colgen is None:
            self._colgen = ColumnGeneration(
                self.form, hints=self._colgen_hints, max_iter=merged.get("max_iter")
            )
        else:
            self._colgen.max_iter = merged.get("max_iter")
        if self._coeffs_dirty:
            self._colgen.refresh_data()
        self._coeffs_dirty = self._pattern_grew = False
        return self._colgen.solve_lp(deadline=deadline)

    def _solve_warm(self, merged: Dict[str, Any], deadline: Optional[Deadline]) -> Solution:
        """Warm simplex path: an LP re-solved from the previous optimal basis."""
        from repro.optim.simplex import SimplexSolver

        if self._simplex is None:
            self._simplex = SimplexSolver(self.form)
        if self._coeffs_dirty:
            # Bounds, right-hand sides and objective coefficients are
            # re-read by every solve; matrix-coefficient patches must be
            # copied into the canonical LP, or re-lowered if they grew it.
            self._simplex.refresh(pattern_grew=self._pattern_grew)
        self._coeffs_dirty = self._pattern_grew = False
        solution, token = self._simplex.solve(
            warm_basis=self._basis, max_iter=merged.get("max_iter"), deadline=deadline
        )
        if token is not None:
            # Solves that end without a factorized optimal basis
            # (infeasible, unbounded, deadline) keep the previous
            # warm-start token instead of clobbering it with None.
            self._basis = token
        return solution

    def _solve_in_house(self, merged: Dict[str, Any], decompose: bool) -> Solution:
        """Re-solve on the state the session keeps, failing over on error.

        Both in-house paths solve an LP and patch the unpresolved form in
        place, so neither runs presolve.  With ``fallback="auto"`` a failure hands the form to
        the failover chain under the same deadline.  The chain only reads
        the session's form, so the kept state (patched matrices, stored
        basis, active columns) survives and a later solve() starts warm.
        """
        _pop_presolve_mode(merged)
        fallback_mode = _pop_fallback_mode(merged)
        time_limit = merged.pop("time_limit", None)
        deadline = Deadline(time_limit) if time_limit is not None else None
        try:
            if faultinject.ACTIVE:
                faultinject.maybe_fail_backend(self.backend, SolverError)
            if decompose:
                return self._solve_colgen(merged, deadline)
            return self._solve_warm(merged, deadline)
        except SolverError as exc:
            if fallback_mode != "auto":
                raise
            return _run_with_failover(self.form, False, self.backend, merged, deadline, failed=exc)

    def solve(self, raise_on_infeasible: bool = False, **options: Any) -> Solution:
        """Re-solve against the current (patched) matrices.

        ``options`` override the session-level defaults for this call only.
        """
        from repro.optim.colgen import decomposes

        merged = dict(self.options)
        merged.update(options)
        _check_options(self.backend, merged)

        is_mip = self._is_mip and self.backend != "simplex"
        if self.backend != "scipy" and not is_mip and decomposes(self.form):
            solution = self._solve_in_house(merged, decompose=True)
        elif self.backend == "simplex" and not self._is_mip:
            solution = self._solve_in_house(merged, decompose=False)
        else:
            solution = _solve_form(self.form, self._is_mip, self.backend, merged)

        self.solves += 1
        self.model.attach_solution(solution)
        if raise_on_infeasible:
            _raise_for_status(solution, self.model.name)
        return solution
