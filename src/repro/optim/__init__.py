"""Linear and mixed-integer programming substrate.

This package is a small, self-contained modelling layer plus solvers used by
the monitoring-placement formulations of the paper.  It plays the role that
CPLEX plays in the original article:

* :mod:`repro.optim.model` -- a declarative modelling API (variables, linear
  expressions, constraints, objective) similar in spirit to PuLP, lowering
  to sparse CSC matrices (:mod:`repro.optim.sparse`) by default.
* :mod:`repro.optim.simplex` -- a sparse revised simplex for linear
  programs: the basis is kept LU-factorized and maintained with
  Forrest-Tomlin sparse spike updates plus periodic (nnz-budgeted)
  refactorization, with Dantzig or devex/partial pricing and a
  bounded-variable dual simplex for warm starts
  (:class:`~repro.optim.simplex.SimplexSolver`).  See
  "Pricing and basis-update strategy" below.
* :mod:`repro.optim.branch_and_bound` -- an incremental branch-and-bound
  driver: the model is lowered and canonicalized exactly once, nodes carry
  only their bound arrays, and each child warm-starts from its parent's
  factorized basis (repaired with dual simplex pivots).
* :mod:`repro.optim.scipy_backend` -- an optional backend delegating to
  SciPy's HiGHS interface (``scipy.optimize.linprog`` / ``milp``), fed the
  sparse matrices directly (no densification), which is much faster on the
  larger experiment instances.
* :mod:`repro.optim.instrumentation` -- global counters (pivots,
  factorizations, canonicalizations, peak nonzeros, analyzer runs) the
  benchmarks persist alongside wall-times.
* :mod:`repro.optim.analysis` -- a static analyzer over lowered
  :class:`~repro.optim.model.StandardForm` matrices: shape/dtype/NaN/Inf
  validation and scaling warnings, plus a presolve dry run that reports
  infeasible, redundant and duplicate rows and fixable columns.  It runs
  without solving, as ``python -m repro lint-model``; findings format
  through :mod:`repro.optim.diagnostics`.
* :mod:`repro.optim.presolve` -- the one module that reasons about rows and
  columns over the variable bounds: shrinks a lowered form (fixed/empty
  columns, singleton/redundant/forcing/parallel rows, integer coefficient
  tightening) into a :class:`~repro.optim.presolve.ReducedForm`, proves
  infeasibility where it can, and maps solutions back through a
  :class:`~repro.optim.presolve.Postsolve`.  Runs by default on every
  backend (``presolve="on"|"off"``).
* :mod:`repro.optim.cuts` -- implied cardinality, cover and Gomory
  mixed-integer cutting planes separated at the branch-and-bound root
  (cut-and-branch), plus node-level reduced-cost bound fixing.
* :mod:`repro.optim.resilience` -- the resilient-solve layer: a monotonic
  :class:`~repro.optim.resilience.Deadline` created once per solve and
  threaded through presolve, simplex, cut separation and branch and bound;
  recovery-rung bookkeeping (:func:`~repro.optim.resilience.record_rung`);
  and the greedy degradation heuristic that backs the ``fallback="auto"``
  option.
* :mod:`repro.optim.faultinject` -- a deterministic, seeded fault-injection
  harness for testing the resilience machinery (fail the Nth factorization,
  corrupt a pivot column or a Forrest-Tomlin spike, poison a pricing block,
  take a backend down, jump the deadline clock);
  completely inert -- a single module-flag check -- unless a test arms a
  :class:`~repro.optim.faultinject.FaultPlan`.
* :mod:`repro.optim.colgen` -- restricted-master column generation, an LP
  algorithm the in-house backends switch an LP to from 4,000 columns on (a
  MILP of any width goes to branch and bound): the master LP
  holds only the active columns (and the rows they can violate), a pricing
  oracle computes reduced costs over the full column universe in CSC
  blocks without materializing inactive columns, and a Lagrangian dual
  bound drives early termination and honest gap reporting.  Problem
  layers seed it through
  :class:`~repro.optim.colgen.ColGenHints` (initial columns, expansion
  order, a dual-completion rule for dropped rows).

Pricing and basis-update strategy
---------------------------------

The revised simplex has two independent performance axes:

* **Basis updates.**  Pivots are recorded as *Forrest-Tomlin sparse
  spikes* -- the compressed nonzeros of the transformed entering column
  plus its pivot row -- so applying the update file during FTRAN/BTRAN
  costs O(nnz-of-spike) instead of O(m) per update.  The factor
  refactorizes when the spike count or the stored-nonzero budget is
  exhausted, whichever comes first.
* **Pricing.**  The LP's size picks the primal entering rule on every
  in-house path (simplex backend, branch-and-bound node LPs, column
  generation masters); no option overrides it.  Below 600 canonical
  columns it is Dantzig's full most-negative-reduced-cost pricing -- fine
  for paper-sized instances.  From 600 columns on it is devex: devex
  reference-framework weights with partial (block) scans over the CSC
  columns, which is what converges on the massively primal-degenerate
  coverage LPs at Rocketfuel size (Dantzig deterministically stalls
  there).  Bland's rule remains the anti-cycling escape of last resort
  under either rule, and a primal-degenerate stall ends the attempt
  rather than spinning: a cold solve makes at most two, on exact and on
  slightly shifted bounds, and raises ``SolverError`` when both fail.

Solver options (``time_limit``, ``max_iter``, ``mip_gap``, ``max_nodes``,
``presolve`` and ``fallback``) use one unified vocabulary; the
matrix of which backend honors which option lives in
:data:`repro.optim.backend.BACKEND_OPTIONS`, and unknown option names raise
:class:`~repro.optim.errors.SolverError`.  For parameterized experiments
that re-solve one model under drifting data, lower it once with
:class:`~repro.optim.backend.SolverSession` (or
:meth:`Model.session <repro.optim.model.Model.session>`) and patch
coefficients / right-hand sides / bounds in place between warm-started
re-solves.

Solve statuses
--------------

Every backend reports through the one :class:`SolveStatus` enum; limit
statuses are never conflated (hitting the wall clock is ``TIME_LIMIT``,
exhausting the node budget is ``NODE_LIMIT``):

===================  ======================================================
Status               Meaning
===================  ======================================================
``OPTIMAL``          Proven optimal for the given tolerances.
``FEASIBLE``         A feasible point with no optimality proof (greedy
                     degradation rung).
``INFEASIBLE``       Proven infeasible.
``UNBOUNDED``        Proven unbounded.
``ITERATION_LIMIT``  ``max_iter`` exhausted on the ``scipy`` backend, or the
                     column-generation round cap reached.  The in-house
                     simplex (``simplex`` and ``branch-and-bound``) raises
                     :class:`SolverError` instead, which ``fallback="auto"``
                     fails over.
``NODE_LIMIT``       Branch-and-bound ``max_nodes`` exhausted; best
                     incumbent and gap reported.
``TIME_LIMIT``       ``time_limit`` wall-clock budget exhausted (any
                     layer); best incumbent and gap reported.
``ERROR``            The backend failed outright; with ``fallback="auto"``
                     the dispatcher fails over instead of returning this.
===================  ======================================================

A failed-over :class:`Solution` carries a :class:`Degradation` record
(``solution.degradation``) naming each hop taken, the guarantee that
survives (``"optimal"``, ``"bounded-gap"`` or ``"feasible-only"``) and the
error messages that forced the failover.

The public entry point is :class:`repro.optim.model.Model`:

>>> from repro.optim import Model
>>> m = Model("example", sense="min")
>>> x = m.add_var("x", lb=0.0)
>>> y = m.add_var("y", vartype="binary")
>>> m.add_constr(x + 2 * y >= 3, name="cover")
>>> m.set_objective(x + 5 * y)
>>> sol = m.solve()
>>> round(sol.objective, 6)
3.0
"""

from repro.optim.errors import (
    InfeasibleError,
    InternalSolverError,
    OptimError,
    SolverError,
    UnboundedError,
)
from repro.optim.model import Constraint, LinExpr, Model, Variable, lin_sum
from repro.optim.solution import Degradation, Solution, SolveStatus, selected
from repro.optim.analysis import Diagnostic, analyze_form
from repro.optim.backend import SolverSession, available_backends, solve_model
from repro.optim.colgen import ColGenHints
from repro.optim.faultinject import FaultPlan
from repro.optim.presolve import Postsolve, ReducedForm, presolve
from repro.optim.resilience import Deadline

__all__ = [
    "ColGenHints",
    "Constraint",
    "Deadline",
    "Degradation",
    "Diagnostic",
    "FaultPlan",
    "InfeasibleError",
    "InternalSolverError",
    "LinExpr",
    "Model",
    "OptimError",
    "Postsolve",
    "ReducedForm",
    "Solution",
    "SolverSession",
    "SolveStatus",
    "SolverError",
    "UnboundedError",
    "Variable",
    "analyze_form",
    "available_backends",
    "lin_sum",
    "presolve",
    "selected",
    "solve_model",
]
