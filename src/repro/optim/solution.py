"""Solution objects returned by the LP / MILP solvers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, TypeVar

from repro.optim.errors import NoIncumbentError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.optim._types import FloatArray
    from repro.optim.model import Variable

_K = TypeVar("_K")


class SolveStatus(enum.Enum):
    """Status of a solve attempt.

    ``TIME_LIMIT`` and ``NODE_LIMIT`` are distinct on purpose: the first is a
    wall-clock deadline expiring (see :class:`repro.optim.resilience.Deadline`),
    the second an exhausted node budget.  Both carry the best incumbent found
    and an honest :attr:`Solution.gap`.  ``FEASIBLE`` marks a point that
    satisfies every constraint but comes with no optimality proof at all --
    the status of the greedy degradation rung of a failed-over solve.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        """True when the solver proved optimality."""
        return self is SolveStatus.OPTIMAL

    @property
    def is_limit(self) -> bool:
        """True when the solve stopped at a time, node or iteration budget."""
        return self in (SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT, SolveStatus.ITERATION_LIMIT)


@dataclass(frozen=True)
class Degradation:
    """Record of the resilience rungs a solve burned through.

    Attached to a :class:`Solution` only when at least one failover rung
    fired under the ``fallback="auto"`` solve option, so callers can tell a
    first-try answer from one that survived a backend loss -- and know what
    optimality guarantee is left.

    Attributes
    ----------
    rungs:
        The failover transitions that fired, in order, e.g.
        ``("scipy->branch-and-bound", "branch-and-bound->greedy")``.
    guarantee:
        The guarantee that survived: ``"optimal"`` (a later backend still
        proved optimality), ``"bounded-gap"`` (incumbent plus a valid dual
        bound, see :attr:`Solution.gap`), or ``"feasible-only"`` (the greedy
        rung: a feasible point with no bound at all).
    errors:
        One human-readable line per failed rung, for diagnosis.
    """

    rungs: Tuple[str, ...] = ()
    guarantee: str = "optimal"
    errors: Tuple[str, ...] = ()


@dataclass
class Solution:
    """Result of solving a model.

    Attributes
    ----------
    status:
        Outcome of the solve.
    objective:
        Objective value in the *model's* sense (i.e. already negated back for
        maximization problems).  ``None`` unless a feasible point was found.
    values:
        Mapping from variable name to value.  Empty unless a feasible point
        was found.
    backend:
        Name of the backend that produced the solution.
    iterations:
        Simplex iterations (LP) or branch-and-bound nodes explored (MILP),
        when the backend reports them.
    gap:
        Relative optimality gap for MILP solves that stopped at a limit;
        0.0 for proven optima.  A limit exit without an incumbent has no
        point to measure a gap from and reports ``math.inf``, never 0.0.
    reduced_costs:
        Optional per-variable reduced costs of an optimal LP basis, in the
        *minimization* sense and aligned with the form's variable order.
        Populated by the in-house simplex and the SciPy LP backend; consumed
        by branch-and-bound's reduced-cost variable fixing.
    duals:
        Optional per-row dual values of an optimal LP basis, in the
        *minimization* sense and in canonical row order (all ``<=`` rows in
        lowering order, then all ``==`` rows).  At optimality the duals of
        ``<=`` rows are nonpositive.  Populated by the in-house simplex;
        consumed by the column-generation pricing oracle
        (:mod:`repro.optim.colgen`).
    degradation:
        ``None`` for a solve that succeeded on its first backend; a
        :class:`Degradation` record when ``fallback="auto"`` rode one or
        more failover rungs to produce this solution.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[str, float] = field(default_factory=dict)
    backend: str = ""
    iterations: int = 0
    gap: float = 0.0
    reduced_costs: Optional["FloatArray"] = None
    duals: Optional["FloatArray"] = None
    degradation: Optional[Degradation] = None

    @property
    def is_optimal(self) -> bool:
        """True when the solution is proven optimal."""
        return self.status.is_optimal

    def point(self) -> Dict[str, float]:
        """The variable values; raises :class:`NoIncumbentError` when empty."""
        if not self.values:
            raise NoIncumbentError(f"no point to read: the solve ended {self.status.value!r}")
        return self.values

    def value(self, name: str) -> float:
        """Return the value of variable ``name``.

        Raises
        ------
        NoIncumbentError
            If the solve produced no point at all.
        KeyError
            If the variable is not part of the solution.
        """
        return (self.values or self.point())[name]

    def nonzeros(self, tol: float = 1e-9) -> Dict[str, float]:
        """Return only the variables whose value exceeds ``tol`` in magnitude."""
        return {k: v for k, v in self.values.items() if abs(v) > tol}

    def as_dict(self) -> Mapping[str, float]:
        """Return a read-only view of all variable values."""
        return dict(self.values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        obj = "None" if self.objective is None else f"{self.objective:.6g}"
        return (
            f"Solution(status={self.status.value!r}, objective={obj}, "
            f"nvars={len(self.values)}, backend={self.backend!r})"
        )


def selected(solution: Solution, variables: Mapping[_K, "Variable"]) -> List[_K]:
    """Keys of ``variables`` whose binary is on (above 0.5) in ``solution``.

    Keys come back in the mapping's order.  Raises :class:`NoIncumbentError`
    when the solve produced no point.
    """
    point = solution.point()
    return [key for key, var in variables.items() if point[var.name] > 0.5]
