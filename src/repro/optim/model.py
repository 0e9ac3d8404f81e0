"""Declarative LP / MILP modelling layer.

The classes in this module let the rest of the library express the paper's
mathematical programs (Linear programs 1, 2 and 3, and the beacon-placement
ILP) in a form close to the notation used in the article, while remaining
independent of the solver backend used underneath.

A :class:`Model` owns :class:`Variable` objects.  Arithmetic on variables
builds :class:`LinExpr` objects, and comparisons (``<=``, ``>=``, ``==``)
build :class:`Constraint` objects that can be added to the model.  The model
can then be lowered to a :class:`StandardForm` consumed by the solvers in
:mod:`repro.optim.simplex`, :mod:`repro.optim.branch_and_bound` and
:mod:`repro.optim.scipy_backend`.

Lowering is *sparse by default*: the constraint matrices come out as
:class:`repro.optim.sparse.SparseMatrix` (CSC) built straight from the
constraint terms without ever materializing dense rows -- the placement
programs of the paper are >95% zeros and every consumer (the sparse revised
simplex, branch and bound, SciPy's HiGHS) operates on the sparse arrays
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.optim.errors import ModelError
from repro.optim.solution import Solution
from repro.optim.sparse import SparseMatrix

Number = Union[int, float]

#: Variable types understood by the modelling layer.
VARTYPES = ("continuous", "integer", "binary")

#: Constraint senses, using the conventional two-character spellings.
SENSES = ("<=", ">=", "==")


class Variable:
    """A decision variable belonging to a :class:`Model`.

    Variables are created through :meth:`Model.add_var`; constructing them
    directly is possible but they must still be registered with the model to
    be part of a solve.
    """

    __slots__ = ("name", "lb", "ub", "vartype", "index", "_model")

    def __init__(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vartype: str = "continuous",
        index: int = -1,
        model: Optional["Model"] = None,
    ) -> None:
        if vartype not in VARTYPES:
            raise ModelError(f"unknown variable type {vartype!r}")
        if math.isnan(lb) or math.isnan(ub):
            raise ModelError(f"variable {name!r}: NaN bound (lb={lb}, ub={ub})")
        if vartype == "binary":
            # Clamp instead of overriding so callers can fix a binary to 0 or 1
            # by passing lb=ub (used by the incremental placement variants).
            lb = max(0.0, lb)
            ub = min(1.0, ub)
        if lb > ub:
            raise ModelError(f"variable {name!r}: lower bound {lb} exceeds upper bound {ub}")
        self.name = name
        self.lb = float(lb)
        self.ub = float(ub)
        self.vartype = vartype
        self.index = index
        self._model = model

    # -- arithmetic -------------------------------------------------------
    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: Union["Variable", "LinExpr", Number]) -> "LinExpr":
        return self._as_expr() + other

    __radd__ = __add__

    def __sub__(self, other: Union["Variable", "LinExpr", Number]) -> "LinExpr":
        return self._as_expr() - other

    def __rsub__(self, other: Union["Variable", "LinExpr", Number]) -> "LinExpr":
        return (-self._as_expr()) + other

    def __mul__(self, coeff: Number) -> "LinExpr":
        return self._as_expr() * coeff

    __rmul__ = __mul__

    def __truediv__(self, denom: Number) -> "LinExpr":
        return self._as_expr() / denom

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    # -- comparisons build constraints -------------------------------------
    def __le__(self, other: Union["Variable", "LinExpr", Number]) -> "Constraint":
        return self._as_expr() <= other

    def __ge__(self, other: Union["Variable", "LinExpr", Number]) -> "Constraint":
        return self._as_expr() >= other

    def __eq__(self, other: object) -> Any:  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self._as_expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    @property
    def is_integer(self) -> bool:
        """True for ``integer`` and ``binary`` variables."""
        return self.vartype in ("integer", "binary")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Variable({self.name!r}, [{self.lb}, {self.ub}], {self.vartype})"


class LinExpr:
    """An affine expression ``sum_i coeff_i * var_i + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Optional[Mapping[Variable, float]] = None,
        constant: float = 0.0,
    ) -> None:
        self.terms: Dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)

    def copy(self) -> "LinExpr":
        """Return an independent copy of the expression."""
        return LinExpr(dict(self.terms), self.constant)

    # -- arithmetic -------------------------------------------------------
    @staticmethod
    def _coerce(other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other._as_expr()
        if isinstance(other, (int, float)):
            return LinExpr({}, float(other))
        raise TypeError(f"cannot combine LinExpr with {type(other).__name__}")

    def __add__(self, other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        rhs = self._coerce(other)
        out = self.copy()
        for var, coeff in rhs.terms.items():
            out.terms[var] = out.terms.get(var, 0.0) + coeff
        out.constant += rhs.constant
        return out

    __radd__ = __add__

    def __sub__(self, other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, coeff: Number) -> "LinExpr":
        if not isinstance(coeff, (int, float)):
            raise TypeError("LinExpr can only be multiplied by a scalar")
        return LinExpr({v: c * coeff for v, c in self.terms.items()}, self.constant * coeff)

    __rmul__ = __mul__

    def __truediv__(self, denom: Number) -> "LinExpr":
        if denom == 0:
            raise ZeroDivisionError("division of LinExpr by zero")
        return self * (1.0 / denom)

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons ------------------------------------------------------
    def __le__(self, other: Union["LinExpr", Variable, Number]) -> "Constraint":
        return Constraint(self - self._coerce(other), "<=")

    def __ge__(self, other: Union["LinExpr", Variable, Number]) -> "Constraint":
        return Constraint(self - self._coerce(other), ">=")

    def __eq__(self, other: object) -> Any:  # type: ignore[override]
        if isinstance(other, (LinExpr, Variable, int, float)):
            return Constraint(self - self._coerce(other), "==")
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    # -- evaluation -------------------------------------------------------
    def value(self, assignment: Mapping[str, float]) -> float:
        """Evaluate the expression under a name -> value assignment."""
        total = self.constant
        for var, coeff in self.terms.items():
            total += coeff * assignment[var.name]
        return total

    def variables(self) -> List[Variable]:
        """Return the variables appearing with a non-zero coefficient."""
        return [v for v, c in self.terms.items() if c != 0.0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{c:+g}*{v.name}" for v, c in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


def lin_sum(items: Iterable[Union[LinExpr, Variable, Number]]) -> LinExpr:
    """Sum an iterable of variables / expressions / numbers into a LinExpr.

    This avoids the quadratic behaviour of ``sum()`` on large generators of
    expressions and mirrors PuLP's ``lpSum``.
    """
    out = LinExpr()
    for item in items:
        rhs = LinExpr._coerce(item)
        for var, coeff in rhs.terms.items():
            out.terms[var] = out.terms.get(var, 0.0) + coeff
        out.constant += rhs.constant
    return out


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0``.

    The expression stored already has the right-hand side folded into its
    constant term, i.e. the constraint reads ``expr.terms + expr.constant
    sense 0``.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: str, name: str = "") -> None:
        if sense not in SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    @property
    def rhs(self) -> float:
        """Right-hand side once variables are moved to the left."""
        return -self.expr.constant

    def coefficients(self) -> Dict[Variable, float]:
        """Mapping variable -> coefficient on the left-hand side."""
        return {v: c for v, c in self.expr.terms.items() if c != 0.0}

    def is_satisfied(self, assignment: Mapping[str, float], tol: float = 1e-6) -> bool:
        """Check the constraint under a name -> value assignment."""
        lhs = sum(c * assignment[v.name] for v, c in self.expr.terms.items())
        rhs = self.rhs
        if self.sense == "<=":
            return lhs <= rhs + tol
        if self.sense == ">=":
            return lhs >= rhs - tol
        return abs(lhs - rhs) <= tol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.expr!r} {self.sense} {self.rhs:g}"


@dataclass
class StandardForm:
    """Matrix form of a model, in minimization sense.

    ``minimize c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``
    and ``lb <= x <= ub``; ``integrality[i]`` is 1 when variable ``i`` must be
    integral.  ``A_ub`` / ``A_eq`` are CSC
    :class:`repro.optim.sparse.SparseMatrix` instances.

    ``row_map`` (filled by :meth:`Model.to_standard_form`) maps a constraint
    name to ``(kind, row, sign)`` where ``kind`` is ``"ub"`` or ``"eq"``,
    ``row`` indexes into the corresponding matrix and ``sign`` records the
    negation applied when lowering ``>=`` rows.  It is what lets
    :class:`repro.optim.backend.SolverSession` patch coefficients and
    right-hand sides in place instead of re-lowering the whole model.
    """

    c: np.ndarray
    A_ub: SparseMatrix
    b_ub: np.ndarray
    A_eq: SparseMatrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    names: List[str] = field(default_factory=list)
    objective_offset: float = 0.0
    maximize: bool = False
    row_map: Dict[str, Tuple[str, int, float]] = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        """Number of columns in the lowered form."""
        return len(self.c)

    def objective_value(self, x: np.ndarray) -> float:
        """Objective in the *original* sense for a point ``x``."""
        value = float(self.c @ x) + self.objective_offset
        return -value if self.maximize else value


class Model:
    """Container for variables, constraints and an objective.

    Parameters
    ----------
    name:
        Free-form label used in error messages and reports.
    sense:
        Either ``"min"`` or ``"max"``.
    """

    def __init__(self, name: str = "model", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.sense = sense
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._vars_by_name: Dict[str, Variable] = {}
        self._solution: Optional[Solution] = None

    # -- building ---------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vartype: str = "continuous",
    ) -> Variable:
        """Create, register and return a new variable.

        Raises
        ------
        ModelError
            If a variable with the same name already exists.
        """
        if name in self._vars_by_name:
            raise ModelError(f"variable {name!r} already exists in model {self.name!r}")
        var = Variable(name, lb=lb, ub=ub, vartype=vartype, index=len(self.variables), model=self)
        self.variables.append(var)
        self._vars_by_name[name] = var
        return var

    def get_var(self, name: str) -> Variable:
        """Return the registered variable called ``name``."""
        try:
            return self._vars_by_name[name]
        except KeyError:
            raise ModelError(f"no variable named {name!r} in model {self.name!r}") from None

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint (optionally renaming it) and return it."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constr expects a Constraint; "
                "did you write a boolean expression instead of <=, >= or ==?"
            )
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        for var in constraint.expr.terms:
            self._check_owned(var)
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expr: Union[LinExpr, Variable, Number], sense: Optional[str] = None) -> None:
        """Set the objective expression (and optionally flip the sense)."""
        if sense is not None:
            if sense not in ("min", "max"):
                raise ModelError(f"objective sense must be 'min' or 'max', got {sense!r}")
            self.sense = sense
        self.objective = LinExpr._coerce(expr).copy()
        for var in self.objective.terms:
            self._check_owned(var)

    # -- incremental updates -------------------------------------------------
    def get_constr(self, name: str) -> Constraint:
        """Return the registered constraint called ``name``.

        Raises :class:`ModelError` when the name is missing or ambiguous
        (several constraints sharing a name cannot be addressed for updates).
        """
        matches = [c for c in self.constraints if c.name == name]
        if not matches:
            raise ModelError(f"no constraint named {name!r} in model {self.name!r}")
        if len(matches) > 1:
            raise ModelError(
                f"{len(matches)} constraints named {name!r} in model {self.name!r}; "
                "rename them to address one for updates"
            )
        return matches[0]

    def update_constraint_rhs(self, name: str, rhs: Number) -> Constraint:
        """Change the right-hand side of constraint ``name`` in place.

        Only the constant term moves; coefficients and sense are preserved.
        Useful for parameterized models re-solved with drifting data.  Note
        that an already-created :class:`repro.optim.backend.SolverSession`
        snapshots the lowered matrices: update the session (not the model)
        when re-solving through one.
        """
        constr = self.get_constr(name)
        constr.expr.constant = -float(rhs)
        return constr

    def session(self, backend: str = "auto", **options: Any) -> "object":
        """Lower the model once and return a reusable
        :class:`repro.optim.backend.SolverSession` for incremental re-solves."""
        from repro.optim.backend import SolverSession

        return SolverSession(self, backend=backend, **options)

    def attach_solution(self, solution: Solution) -> None:
        """Record ``solution`` as this model's latest solve result.

        Called by :class:`repro.optim.backend.SolverSession` so that
        :meth:`value` and :attr:`solution` keep working after session-driven
        re-solves.
        """
        self._solution = solution

    def _check_owned(self, var: Variable) -> None:
        owner = self._vars_by_name.get(var.name)
        if owner is not var:
            raise ModelError(
                f"variable {var.name!r} does not belong to model {self.name!r}"
            )

    # -- introspection -----------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables declared on the model."""
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        """Number of constraints declared on the model."""
        return len(self.constraints)

    @property
    def num_integer_vars(self) -> int:
        """Number of integer (including binary) variables."""
        return sum(1 for v in self.variables if v.is_integer)

    @property
    def is_mip(self) -> bool:
        """True when at least one variable is integer or binary."""
        return self.num_integer_vars > 0

    # -- lowering -----------------------------------------------------------
    def to_standard_form(self) -> StandardForm:
        """Lower the model to minimization standard form.

        The constraint matrices are :class:`repro.optim.sparse.SparseMatrix`
        in CSC layout, assembled directly from the constraint terms as
        coordinate triplets; no dense row is ever materialized.  Terms
        carrying an explicit ``0.0`` coefficient are kept in the sparsity
        pattern, so later in-place session updates of those coefficients
        stay structural no-ops.

        Raises :class:`ModelError` naming the constraint (or the objective)
        that carries a NaN or infinite coefficient, right-hand side or
        objective term.
        """
        n = self.num_vars
        c = np.zeros(n)
        for var, coeff in self.objective.terms.items():
            c[var.index] += coeff
        offset = self.objective.constant
        maximize = self.sense == "max"
        if maximize:
            c = -c
            offset = -offset

        ub_r: List[int] = []
        ub_c: List[int] = []
        ub_v: List[float] = []
        ub_rhs: List[float] = []
        eq_r: List[int] = []
        eq_c: List[int] = []
        eq_v: List[float] = []
        eq_rhs: List[float] = []
        row_map: Dict[str, Tuple[str, int, float]] = {}
        for constr in self.constraints:
            rhs = constr.rhs
            if constr.sense == "<=":
                entry = ("ub", len(ub_rhs), 1.0)
                rows, cols, vals, rhs_list, sign = ub_r, ub_c, ub_v, ub_rhs, 1.0
            elif constr.sense == ">=":
                entry = ("ub", len(ub_rhs), -1.0)
                rows, cols, vals, rhs_list, sign = ub_r, ub_c, ub_v, ub_rhs, -1.0
            else:
                entry = ("eq", len(eq_rhs), 1.0)
                rows, cols, vals, rhs_list, sign = eq_r, eq_c, eq_v, eq_rhs, 1.0
            row = len(rhs_list)
            for var, coeff in constr.expr.terms.items():
                rows.append(row)
                cols.append(var.index)
                vals.append(sign * coeff)
            rhs_list.append(sign * rhs)
            # A duplicated name cannot be addressed unambiguously; poison the
            # entry so name-based session updates fail loudly instead of
            # silently patching an arbitrary one of the rows.
            row_map[constr.name] = (
                ("dup", -1, 0.0) if constr.name in row_map else entry
            )

        A_ub = SparseMatrix.from_coo(ub_r, ub_c, ub_v, (len(ub_rhs), n))
        A_eq = SparseMatrix.from_coo(eq_r, eq_c, eq_v, (len(eq_rhs), n))
        b_ub = np.array(ub_rhs, dtype=float)
        b_eq = np.array(eq_rhs, dtype=float)
        if not (
            math.isfinite(offset)
            and np.isfinite(c).all()
            and np.isfinite(A_ub.data).all()
            and np.isfinite(A_eq.data).all()
            and np.isfinite(b_ub).all()
            and np.isfinite(b_eq).all()
        ):
            self._reject_nonfinite()
        return StandardForm(
            c=c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            lb=np.array([v.lb for v in self.variables], dtype=float),
            ub=np.array([v.ub for v in self.variables], dtype=float),
            integrality=np.array([1 if v.is_integer else 0 for v in self.variables]),
            names=[v.name for v in self.variables],
            objective_offset=offset,
            maximize=maximize,
            row_map=row_map,
        )

    def _reject_nonfinite(self) -> None:
        """Raise :class:`ModelError` at the first NaN or infinite model datum."""
        objective = self.objective
        for var, coeff in objective.terms.items():
            if not math.isfinite(coeff):
                raise ModelError(
                    f"model {self.name!r}: objective coefficient of {var.name!r} is {coeff}"
                )
        if not math.isfinite(objective.constant):
            raise ModelError(f"model {self.name!r}: objective constant is {objective.constant}")
        for constr in self.constraints:
            for var, coeff in constr.expr.terms.items():
                if not math.isfinite(coeff):
                    raise ModelError(
                        f"constraint {constr.name!r}: coefficient of {var.name!r} is {coeff}"
                    )
            if not math.isfinite(constr.rhs):
                raise ModelError(f"constraint {constr.name!r}: right-hand side is {constr.rhs}")

    # -- solving ------------------------------------------------------------
    def solve(self, backend: str = "auto", **options: Any) -> Solution:
        """Solve the model and cache/return the :class:`Solution`.

        ``backend`` is one of ``"auto"``, ``"scipy"``, ``"simplex"`` or
        ``"branch-and-bound"``; see :func:`repro.optim.backend.solve_model`.
        """
        from repro.optim.backend import solve_model

        solution = solve_model(self, backend=backend, **options)
        self._solution = solution
        return solution

    @property
    def solution(self) -> Solution:
        """Last solution produced by :meth:`solve`."""
        if self._solution is None:
            raise ModelError(f"model {self.name!r} has not been solved yet")
        return self._solution

    def value(self, item: Union[Variable, LinExpr, str]) -> float:
        """Value of a variable, variable name or expression in the last solution."""
        sol = self.solution
        if isinstance(item, str):
            return sol.value(item)
        if isinstance(item, Variable):
            return sol.value(item.name)
        if isinstance(item, LinExpr):
            return item.value(sol.point())
        raise ModelError(f"cannot evaluate object of type {type(item).__name__}")

    def check_feasible(self, assignment: Mapping[str, float], tol: float = 1e-6) -> bool:
        """Check whether an assignment satisfies every constraint and bound."""
        for var in self.variables:
            val = assignment[var.name]
            if val < var.lb - tol or val > var.ub + tol:
                return False
            if var.is_integer and abs(val - round(val)) > tol:
                return False
        return all(c.is_satisfied(assignment, tol=tol) for c in self.constraints)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "MILP" if self.is_mip else "LP"
        return (
            f"Model({self.name!r}, {kind}, {self.num_vars} vars, "
            f"{self.num_constraints} constraints, sense={self.sense})"
        )
