"""Interface listing, formatted as in the paper's Figure 5.

>>> print(format_interfaces(idct1))          # doctest: +SKIP
Interfaces component [IDCT_1]
----------------------------
[Interface] [Type]
introspection provided
_fetchIdct1 provided
introspection required
idctReorder required
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.component import Component


def format_interfaces(component: "Component") -> str:
    """Render a component's interface listing in Figure 5 style."""
    lines = [
        f"Interfaces component [{component.name}]",
        "----------------------------",
        "[Interface] [Type]",
    ]
    for name, kind in component.interfaces():
        lines.append(f"{name} {kind}")
    return "\n".join(lines)

