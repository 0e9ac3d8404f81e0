#!/usr/bin/env python
"""Project-specific AST linter for the solver stack.

Generic linters cannot see the invariants this codebase actually depends on,
so this tool enforces them directly over the syntax tree:

SOLV001  no densification outside sanctioned sites
    ``*.to_dense()``, ``as_dense(...)`` and ``np.linalg.inv(...)`` silently
    turn the sparse CSC kernels into O(m*n) dense work.  They are allowed
    only in :mod:`repro.optim.sparse` itself (which defines the conversions)
    and in the ``_BasisFactor`` dense fallback of :mod:`repro.optim.simplex`.

SOLV002  no bare or broad ``except`` without justification
    ``except:``, ``except Exception`` and ``except BaseException`` swallow
    ``InternalSolverError`` and numerical failures alike.  A handler this
    broad must carry a ``# pragma`` comment on the ``except`` line saying
    why (e.g. ``# pragma: optional-dep``).

SOLV003  no ``assert`` for runtime control flow
    ``python -O`` strips asserts, so invariant checks inside ``src/repro``
    must raise :class:`repro.optim.errors.InternalSolverError` instead.

SOLV004  no direct mutation of ``StandardForm`` arrays
    Writing into ``form.c`` / ``form.A_ub`` / ``form.b_ub`` / ``form.A_eq``
    / ``form.b_eq`` / ``form.lb`` / ``form.ub`` outside the
    ``SolverSession`` patch methods bypasses their value checks and the
    dirty-tracking that keeps warm starts consistent with the matrices.  The rule
    covers ``ReducedForm`` (the presolve output, a ``StandardForm``
    subclass) under the ``reduced`` / ``_reduced`` owner names too: a
    reduced form is a *rebuilt* snapshot whose arrays feed
    :class:`repro.optim.presolve.Postsolve`, so patching them in place
    would desynchronize the postsolve mapping.

SOLV005  no naked clock reads inside ``repro.optim``
    ``time.monotonic()``, ``time.perf_counter()`` and ``time.time()`` in
    solver code bypass :class:`repro.optim.resilience.Deadline`, the one
    budget every layer shares.  A private clock cannot be skewed by the
    fault-injection harness and silently re-introduces the
    time-limit-as-node-limit conflation the resilience layer removed, so
    all wall-clock awareness must flow through a ``Deadline`` threaded from
    the backend dispatcher.  Only ``repro/optim/resilience.py`` (which
    defines the deadline) may touch the clock; benchmarks and tests are
    outside the rule's scope.

Usage::

    python tools/lint_solver.py src/repro [more paths ...]

Exits non-zero when any finding is produced.  The test suite also imports
:func:`lint_source` directly to unit-test each rule.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

#: (filename suffix, enclosing scope name or "" for whole module) pairs where
#: densification is sanctioned.  Scope names match any enclosing class or
#: function on the stack.
DENSIFY_ALLOWLIST: Tuple[Tuple[str, str], ...] = (
    ("repro/optim/sparse.py", ""),
    ("repro/optim/simplex.py", "_BasisFactor"),
)

#: Attribute names of StandardForm whose arrays must only be patched through
#: SolverSession.
FORM_ARRAY_ATTRS = frozenset({"c", "A_ub", "b_ub", "A_eq", "b_eq", "lb", "ub"})

#: Variable / attribute names treated as StandardForm owners by SOLV004.
#: ``reduced`` / ``_reduced`` cover :class:`repro.optim.presolve.ReducedForm`,
#: whose arrays back the postsolve mapping and must stay frozen.
FORM_OWNER_NAMES = ("form", "_form", "reduced", "_reduced")

#: Scope allowed to mutate StandardForm arrays in place.
FORM_MUTATION_ALLOWLIST: Tuple[Tuple[str, str], ...] = (
    ("repro/optim/backend.py", "SolverSession"),
)

BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})

#: Dotted call names that read a wall clock directly (SOLV005).
CLOCK_CALL_NAMES = frozenset({"time.monotonic", "time.perf_counter", "time.time"})

#: Path fragment SOLV005 applies to, and the file allowed to read the clock.
CLOCK_SCOPE_FRAGMENT = "repro/optim/"
CLOCK_ALLOWLIST: Tuple[Tuple[str, str], ...] = (("repro/optim/resilience.py", ""),)


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _normalized(path: str) -> str:
    return path.replace("\\", "/")


def _in_allowlist(path: str, scopes: Sequence[str], allowlist: Sequence[Tuple[str, str]]) -> bool:
    norm = _normalized(path)
    for suffix, scope in allowlist:
        if not norm.endswith(suffix):
            continue
        if scope == "" or scope in scopes:
            return True
    return False


def _dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of an expression, e.g. ``np.linalg.inv``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class _SolverLinter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.scopes: List[str] = []
        self.findings: List[Finding] = []

    # -- scope tracking -----------------------------------------------------

    def _visit_scope(self, node: ast.AST, name: str) -> None:
        self.scopes.append(name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node, node.name)

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, getattr(node, "lineno", 0), rule, message))

    # -- SOLV001: densification --------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        densifier = ""
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "to_dense":
            densifier = "to_dense()"
        elif isinstance(func, ast.Name) and func.id in ("as_dense", "to_dense"):
            densifier = f"{func.id}(...)"
        else:
            dotted = _dotted_name(func)
            if dotted.endswith("linalg.inv"):
                densifier = f"{dotted}(...)"
        if densifier and not _in_allowlist(self.path, self.scopes, DENSIFY_ALLOWLIST):
            self._report(
                node,
                "SOLV001",
                f"densification via {densifier} outside the sanctioned sites "
                "(sparse.py, simplex._BasisFactor)",
            )
        self._check_clock_read(node)
        self.generic_visit(node)

    # -- SOLV005: naked clock reads in repro.optim --------------------------

    def _check_clock_read(self, node: ast.Call) -> None:
        if CLOCK_SCOPE_FRAGMENT not in _normalized(self.path):
            return
        dotted = _dotted_name(node.func)
        if dotted not in CLOCK_CALL_NAMES:
            return
        if _in_allowlist(self.path, self.scopes, CLOCK_ALLOWLIST):
            return
        self._report(
            node,
            "SOLV005",
            f"naked {dotted}() in repro.optim; thread a "
            "repro.optim.resilience.Deadline instead so one skewable clock "
            "governs every layer",
        )

    # -- SOLV002: broad excepts --------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = ""
        if node.type is None:
            broad = "bare except:"
        else:
            name = _dotted_name(node.type)
            if name in BROAD_EXCEPTION_NAMES:
                broad = f"except {name}"
        if broad and not self._line_has_pragma(node.lineno):
            self._report(
                node,
                "SOLV002",
                f"{broad} without a '# pragma' justification on the same line",
            )
        self.generic_visit(node)

    def _line_has_pragma(self, lineno: int) -> bool:
        if 1 <= lineno <= len(self.lines):
            return "# pragma" in self.lines[lineno - 1]
        return False

    # -- SOLV003: runtime asserts ------------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        self._report(
            node,
            "SOLV003",
            "assert is stripped under python -O; raise InternalSolverError instead",
        )
        self.generic_visit(node)

    # -- SOLV004: StandardForm array mutation ------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_form_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_form_write(node.target)
        self.generic_visit(node)

    def _check_form_write(self, target: ast.AST) -> None:
        # form.c[...] = v  /  session.form.b_ub[...] += v
        if not isinstance(target, ast.Subscript):
            return
        attr = target.value
        if not (isinstance(attr, ast.Attribute) and attr.attr in FORM_ARRAY_ATTRS):
            return
        owner = attr.value
        owner_is_form = (isinstance(owner, ast.Name) and owner.id in FORM_OWNER_NAMES) or (
            isinstance(owner, ast.Attribute) and owner.attr in FORM_OWNER_NAMES
        )
        if owner_is_form and not _in_allowlist(self.path, self.scopes, FORM_MUTATION_ALLOWLIST):
            self._report(
                target,
                "SOLV004",
                f"in-place write to StandardForm.{attr.attr} outside "
                "SolverSession patch methods; use session.update_* instead",
            )


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint a single source string; ``path`` controls allowlist matching."""
    tree = ast.parse(source, filename=path)
    linter = _SolverLinter(path, source.splitlines())
    linter.visit(tree)
    return linter.findings


def iter_python_files(roots: Sequence[str]) -> Iterator[Path]:
    for root in roots:
        path = Path(root)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def main(argv: Sequence[str]) -> int:
    roots = list(argv) or ["src/repro"]
    findings: List[Finding] = []
    checked = 0
    for path in iter_python_files(roots):
        checked += 1
        findings.extend(lint_source(path.read_text(encoding="utf-8"), str(path)))
    for finding in findings:
        print(finding)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"lint_solver: {checked} file(s) checked, {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
