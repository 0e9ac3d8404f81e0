#!/usr/bin/env python
"""Doc-sync linter: the reference tables must cover the introspectable API.

The docs under ``docs/`` contain two reference tables that exist to be
*complete*:

* ``docs/solver-options.md`` must document every validated solver option —
  the union of ``repro.optim.backend.BACKEND_OPTIONS`` (the authoritative
  option-per-backend matrix the dispatcher validates against).
* ``docs/instrumentation.md`` must document every performance counter in
  ``repro.optim.instrumentation.COUNTER_NAMES``.

Rather than trusting authors to remember the docs, this tool introspects
those structures and fails when a name is missing.  A name counts as
documented when it appears backtick-quoted (`` `name` ``) anywhere in the
corresponding file, which is how both tables render their first column.
It also fails on a stale entry: a backtick-quoted first-column entry of a
table in ``instrumentation.md``, or of the Options table in
``solver-options.md``, that names no current counter or option.

Usage::

    python tools/check_docs.py [--docs-dir docs]

Exits non-zero listing every missing (or stale) name.  CI runs it in the
``static-analysis`` job; ``tests/test_lint_docs.py`` keeps it honest under
plain pytest by doctoring a copy of the docs and asserting the failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _api_names() -> List[Tuple[str, Set[str], Optional[str]]]:
    """(doc file name, required names, section of its reference tables).

    The names are introspected from the code; a section of ``None`` means
    every table of the file lists only those names.
    """
    sys.path.insert(0, str(_REPO_ROOT / "src"))
    try:
        from repro.optim.backend import BACKEND_OPTIONS
        from repro.optim.instrumentation import COUNTER_NAMES
    finally:
        sys.path.pop(0)
    options: Set[str] = set()
    for honored in BACKEND_OPTIONS.values():
        options |= honored
    return [
        ("solver-options.md", options, "## Options"),
        ("instrumentation.md", set(COUNTER_NAMES), None),
    ]


def _documented_names(text: str) -> Set[str]:
    """Every backtick-quoted identifier in ``text``."""
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", text))


def _table_entries(text: str, section: Optional[str]) -> Set[str]:
    """Backtick-quoted first-column entries of the tables in ``section``.

    ``section`` is a heading line; its section runs to the next ``## ``
    heading.  ``None`` takes the tables of the whole text.
    """
    if section is not None:
        lines = text.splitlines()
        if section not in lines:
            return set()
        body = lines[lines.index(section) + 1 :]
        end = next((i for i, line in enumerate(body) if line.startswith("## ")), len(body))
        text = "\n".join(body[:end])
    return set(re.findall(r"^\|\s*`([A-Za-z_][A-Za-z0-9_]*)`\s*\|", text, flags=re.MULTILINE))


def check_docs(docs_dir: Path) -> List[str]:
    """Return a list of human-readable findings (empty means in sync)."""
    findings: List[str] = []
    for file_name, required, section in _api_names():
        path = docs_dir / file_name
        if not path.is_file():
            findings.append(f"{path}: missing (must document {len(required)} names)")
            continue
        text = path.read_text(encoding="utf-8")
        for name in sorted(required - _documented_names(text)):
            findings.append(f"{path}: `{name}` is not documented")
        for name in sorted(_table_entries(text, section) - required):
            findings.append(f"{path}: `{name}` is documented but no longer exists")
    return findings


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--docs-dir",
        type=Path,
        default=_REPO_ROOT / "docs",
        help="directory holding the reference docs (default: the repo's docs/)",
    )
    args = parser.parse_args(argv)
    findings = check_docs(args.docs_dir)
    if findings:
        for finding in findings:
            print(finding)
        print(f"check_docs: {len(findings)} missing or stale name(s)")
        return 1
    total = sum(len(required) for _, required, _ in _api_names())
    print(f"check_docs: {total} option/counter name(s) documented, in sync")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
