"""Layer spans recorded from outside the program, for the traced run.

A :class:`Tracer` replaces a layer's public functions, at the names their
callers look them up under, with wrappers that record one span per call:
the span's name, its duration and the span that was open when it started.
A span's self time is its duration minus the durations of its direct
children, so nested layers (a simplex solve inside a branch-and-bound node
inside a placement solve) are not counted twice.  Spans are aggregated in
memory per name and the originals are restored when the tracer closes.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Tuple

#: Span name -> the functions it wraps, as ``(module, attribute path)``.
#: Module-level names are patched in the module their caller reads them
#: from (branch and bound imports the cut separators into its own
#: namespace); methods are patched on their class.
LAYER_FUNCTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "passive": (
        ("repro.passive.ilp", "PPMSession.solve"),
        ("repro.passive.sampling", "PPMESession.reoptimize"),
    ),
    "passive.session_build": (
        ("repro.passive.ilp", "PPMSession.__init__"),
        ("repro.passive.sampling", "PPMESession.__init__"),
    ),
    "model.lower": (("repro.optim.model", "Model.to_standard_form"),),
    "backend.session_solve": (("repro.optim.backend", "SolverSession.solve"),),
    "backend.patch": (
        ("repro.optim.backend", "SolverSession.update_constraint_rhs"),
        ("repro.optim.backend", "SolverSession.update_constraint_coeff"),
        ("repro.optim.backend", "SolverSession.update_objective_coeff"),
        ("repro.optim.backend", "SolverSession.update_var_bounds"),
    ),
    "presolve": (("repro.optim.presolve", "presolve"),),
    "simplex": (("repro.optim.simplex", "SimplexSolver.solve"),),
    "cuts": (
        ("repro.optim.branch_and_bound", "separate_cover_cuts"),
        ("repro.optim.branch_and_bound", "separate_gomory_cuts"),
        ("repro.optim.branch_and_bound", "separate_implied_cardinality_cuts"),
        ("repro.optim.branch_and_bound", "reduced_cost_fixing"),
    ),
    "bb": (("repro.optim.branch_and_bound", "solve_milp"),),
    "colgen": (("repro.optim.colgen", "ColumnGeneration.solve_lp"),),
    "sparse.rmatvec_range": (("repro.optim.sparse", "SparseMatrix.rmatvec_range"),),
}


class SpanStats:
    """Calls, inclusive seconds and self seconds of one span name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Records nested spans; use as a context manager around traced work.

    While open, every function in :data:`LAYER_FUNCTIONS` is wrapped; the
    stats accumulate over every time it is opened.  The benchmark's own
    calls (instance generation, the problem-layer entry points it invokes
    directly) are wrapped with :meth:`wrap`.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        # Open spans: [name, start, seconds covered by direct children].
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` recording a span called ``name`` around each call."""
        stack = self._stack
        stats = self.stats.setdefault(name, SpanStats())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return traced

    def __enter__(self) -> "Tracer":
        import importlib

        for name, targets in LAYER_FUNCTIONS.items():
            for module_name, path in targets:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def span(self, name: str) -> SpanStats:
        """Aggregated stats of ``name`` (all zero when it never ran)."""
        return self.stats.get(name, SpanStats())
