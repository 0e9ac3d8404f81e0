"""Exception hierarchy for the optimization substrate."""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.optim.analysis import Diagnostic


class OptimError(Exception):
    """Base class for every error raised by :mod:`repro.optim`."""


class ModelError(OptimError):
    """Raised when a model is built or used incorrectly.

    Examples include adding a variable twice, mixing variables from two
    different models in one expression, or asking for the value of a variable
    before the model has been solved.
    """


class SolverError(OptimError):
    """Raised when a solver backend fails for a reason other than the
    mathematical status of the problem (bad options, unavailable backend,
    numerical breakdown)."""


class InternalSolverError(SolverError):
    """A solver invariant that should be unbreakable was broken.

    Replaces runtime ``assert`` statements on real invariants: unlike
    ``assert`` it survives ``python -O``, and the custom linter
    (``tools/lint_solver.py``) forbids ``assert`` in ``src/repro`` outright.
    Seeing this exception always indicates a bug in the solver stack, never
    bad user input.
    """


class ModelAnalysisError(OptimError):
    """Raised by ``check="strict"`` solves when the pre-solve static
    analyzer (:mod:`repro.optim.analysis`) finds error-severity defects in
    the lowered :class:`~repro.optim.model.StandardForm`.

    The offending :class:`~repro.optim.analysis.Diagnostic` records are
    attached as :attr:`diagnostics`.
    """

    def __init__(self, message: str, diagnostics: Tuple["Diagnostic", ...] = ()) -> None:
        super().__init__(message)
        self.diagnostics: Tuple["Diagnostic", ...] = diagnostics


class InfeasibleError(OptimError):
    """Raised when the problem admits no feasible solution."""


class UnboundedError(OptimError):
    """Raised when the objective can be improved without bound."""


class NoIncumbentError(OptimError):
    """Raised when a value is read from a solve that found no point."""
