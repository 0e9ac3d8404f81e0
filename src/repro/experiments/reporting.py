"""Plain-text reporting helpers for the experiment harness.

The paper reports its results as curves (number of devices / beacons versus
a swept parameter); the harness produces the same series as lists of row
dictionaries, and this module renders them as aligned text tables or CSV so
the benchmarks can print exactly the rows the paper plots.
"""

from __future__ import annotations

import io
from typing import Dict, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
    float_format: str = "{:.2f}",
) -> str:
    """Render rows as an aligned plain-text table.

    Parameters
    ----------
    rows:
        The data, one mapping per row.
    columns:
        Column order; defaults to the keys of the first row.
    title:
        Optional title printed above the table.
    float_format:
        Format applied to float values.
    """
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    header = [str(c) for c in columns]
    body = [[render(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) for i in range(len(columns))
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write("  ".join(header[i].rjust(widths[i]) for i in range(len(columns))) + "\n")
    out.write("  ".join("-" * widths[i] for i in range(len(columns))) + "\n")
    for line in body:
        out.write("  ".join(line[i].rjust(widths[i]) for i in range(len(columns))) + "\n")
    return out.getvalue().rstrip("\n")


def rows_to_csv(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as CSV text (no external dependency, no file I/O)."""
    if not rows:
        return ""
    columns = list(columns) if columns is not None else list(rows[0].keys())
    lines = [",".join(str(c) for c in columns)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in columns))
    return "\n".join(lines)


def summarize_ratio(
    rows: Sequence[Mapping[str, float]],
    numerator: str,
    denominator: str,
) -> Dict[str, float]:
    """Summary statistics of the ratio ``numerator / denominator`` across rows.

    Used to check the paper's headline claims, e.g. "the greedy solution is
    twice as large as our solution" (Figure 7) or "the number of beacons is
    reduced by 33%" (Figures 10-11).
    """
    ratios = []
    for row in rows:
        den = float(row[denominator])
        num = float(row[numerator])
        if den > 0:
            ratios.append(num / den)
    if not ratios:
        return {"mean": float("nan"), "min": float("nan"), "max": float("nan")}
    return {
        "mean": sum(ratios) / len(ratios),
        "min": min(ratios),
        "max": max(ratios),
    }
