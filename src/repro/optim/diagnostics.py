"""Reporting channel for pre-solve analyzer findings.

``check="warn"`` solves route their :class:`~repro.optim.analysis.Diagnostic`
records through this module instead of printing directly, so embedding
applications can redirect the stream (into a logger, a metrics pipeline, a
test capture) with :func:`set_handler`.  The default handler writes
one line per finding to ``sys.stderr``, prefixed with the model label.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.optim.analysis import Diagnostic

__all__ = ["format_report", "report", "set_handler"]

#: Signature of a diagnostics handler: ``(label, diagnostics)``.
Handler = Callable[[str, Sequence["Diagnostic"]], None]


def format_report(diagnostics: Sequence["Diagnostic"], label: str = "model") -> str:
    """Multi-line report: a severity tally header plus one line per finding."""
    tally: List[str] = []
    for severity in ("error", "warning", "info"):
        count = sum(1 for d in diagnostics if d.severity == severity)
        if count:
            tally.append(f"{count} {severity}{'s' if count != 1 else ''}")
    header = f"model analysis of {label!r}: " + (", ".join(tally) if tally else "clean")
    lines = [header]
    lines.extend(f"  {d}" for d in diagnostics)
    return "\n".join(lines)


def _default_handler(label: str, diagnostics: Sequence["Diagnostic"]) -> None:
    print(format_report(diagnostics, label=label), file=sys.stderr)


_handler: Handler = _default_handler


def set_handler(handler: "Handler | None") -> Handler:
    """Install ``handler`` as the diagnostics sink; returns the previous one.

    Passing ``None`` restores the default stderr handler.
    """
    global _handler
    previous = _handler
    _handler = handler if handler is not None else _default_handler
    return previous


def report(diagnostics: Sequence["Diagnostic"], label: str = "model") -> None:
    """Send ``diagnostics`` to the current handler."""
    if not diagnostics:
        return
    _handler(label, diagnostics)
