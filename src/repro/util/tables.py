"""Plain-text table rendering for the experiment harnesses.

Every figure/table reproduction prints its rows through this module so that
``EXPERIMENTS.md`` and the benchmark output share one format.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_cell(value: object) -> str:
    """Render a single cell: floats get 1 decimal place, None becomes 'na'."""
    if value is None:
        return "na"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.1f" % value
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table with a header rule."""
    str_rows: List[List[str]] = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                "row has %d cells, expected %d: %r" % (len(row), len(headers), row)
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[str]]
) -> str:
    """A GitHub-flavoured markdown table (the generated reference tables
    in ``docs/``: cells are already strings)."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def percent(before: float, after: float) -> float:
    """Percent change from ``before`` to ``after``: 100 * (after-before)/before."""
    if before == 0:
        raise ValueError("percent change from zero is undefined")
    return 100.0 * (after - before) / before


def improvement_over(baseline: float, optimized: float) -> float:
    """Percent improvement of ``optimized`` over ``baseline``.

    Positive numbers mean the optimized version is faster, matching the bars
    in Figures 9-11 (``100 * (t_base - t_opt) / t_opt``: a 400% improvement
    means the baseline takes 5x as long).
    """
    if optimized <= 0:
        raise ValueError("optimized time must be positive, got %r" % optimized)
    return 100.0 * (baseline - optimized) / optimized
