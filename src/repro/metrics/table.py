"""Plain-text table rendering in the style of the paper's tables."""

from __future__ import annotations

from typing import Any, List, Sequence


class Table:
    """A simple aligned-column text table.

    >>> t = Table(["Component", "Time (us)"])
    >>> t.add_row(["Fetch", 4084])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        if not headers:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, cells: Sequence[Any]) -> None:
        """Append one row (cell count must match the headers)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([self._fmt(c) for c in cells])

    @staticmethod
    def _fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:,.2f}"
        if isinstance(cell, int):
            return f"{cell:,}"
        return str(cell)

    def render(self) -> str:
        """Render to an aligned plain-text block."""
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows)) if self.rows else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover
        return self.render()
