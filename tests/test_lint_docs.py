"""Tests for the doc-sync linter (``tools/check_docs.py``).

The linter introspects ``BACKEND_OPTIONS`` and ``COUNTER_NAMES`` and fails
when the reference tables in ``docs/`` miss a name or list one the code no
longer has.  The real tree must be in sync, and a doctored copy with a
deliberately undocumented (or stale) option or counter must fail --
otherwise the CI gate is vacuous.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs import check_docs, main  # noqa: E402

DOCS_DIR = REPO_ROOT / "docs"


def _doctored_docs(tmp_path: Path, file_name: str, name: str) -> Path:
    """A copy of docs/ with every `name` reference stripped from one file."""
    docs = tmp_path / "docs"
    shutil.copytree(DOCS_DIR, docs)
    target = docs / file_name
    text = target.read_text(encoding="utf-8")
    doctored = re.sub(rf"`{re.escape(name)}`", "(redacted)", text)
    assert doctored != text, f"expected {file_name} to reference `{name}`"
    target.write_text(doctored, encoding="utf-8")
    return docs


def _docs_with_row(tmp_path: Path, file_name: str, after: str, row: str) -> Path:
    """A copy of docs/ with ``row`` inserted below the line starting ``after``."""
    docs = tmp_path / "docs"
    shutil.copytree(DOCS_DIR, docs)
    target = docs / file_name
    lines = target.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(after))
    lines.insert(at + 1, row)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return docs


class TestRealTree:
    def test_docs_are_in_sync(self):
        assert check_docs(DOCS_DIR) == []

    def test_main_exits_zero(self):
        assert main(["--docs-dir", str(DOCS_DIR)]) == 0

    def test_cli_entry_point(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "in sync" in proc.stdout


class TestDoctoredTree:
    def test_undocumented_option_fails(self, tmp_path):
        docs = _doctored_docs(tmp_path, "solver-options.md", "fallback")
        findings = check_docs(docs)
        assert any("`fallback`" in f for f in findings)
        assert main(["--docs-dir", str(docs)]) == 1

    def test_undocumented_counter_fails(self, tmp_path):
        docs = _doctored_docs(tmp_path, "instrumentation.md", "colgen_rounds")
        findings = check_docs(docs)
        assert any("`colgen_rounds`" in f for f in findings)

    def test_stale_counter_fails(self, tmp_path):
        docs = _docs_with_row(
            tmp_path,
            "instrumentation.md",
            "| `recovery_slack_fallback` |",
            "| `recovery_gone` | old | A rung the code no longer has. |",
        )
        findings = check_docs(docs)
        assert findings == [
            f"{docs / 'instrumentation.md'}: `recovery_gone` is documented but no longer exists"
        ]
        assert main(["--docs-dir", str(docs)]) == 1

    def test_stale_option_fails(self, tmp_path):
        docs = _docs_with_row(
            tmp_path,
            "solver-options.md",
            "| `max_nodes` |",
            "| `pricing` | `\"devex\"` | simplex | An option the code no longer has. |",
        )
        # Only the Options table lists options: a row of the same file's
        # environment-variable table is no stale option.
        target = docs / "solver-options.md"
        text = target.read_text(encoding="utf-8")
        row = "| `REPRO_BENCH_NO_PERSIST` |"
        target.write_text(text.replace(row, "| `REPRO_BENCH_OTHER` | Another. |\n" + row))
        findings = check_docs(docs)
        assert findings == [
            f"{docs / 'solver-options.md'}: `pricing` is documented but no longer exists"
        ]
        assert main(["--docs-dir", str(docs)]) == 1

    def test_missing_doc_file_fails(self, tmp_path):
        docs = tmp_path / "docs"
        shutil.copytree(DOCS_DIR, docs)
        (docs / "instrumentation.md").unlink()
        findings = check_docs(docs)
        assert any("missing" in f for f in findings)
        assert main(["--docs-dir", str(docs)]) == 1

    def test_other_files_untouched_by_one_redaction(self, tmp_path):
        # Redacting an option must not produce counter findings: each table
        # is checked against its own file only.
        docs = _doctored_docs(tmp_path, "solver-options.md", "max_nodes")
        findings = check_docs(docs)
        assert findings == [f"{docs / 'solver-options.md'}: `max_nodes` is not documented"]
