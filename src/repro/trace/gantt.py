"""ASCII Gantt rendering of traced intervals.

One lane per component, time flowing left to right, each cell showing
which operation dominated that time slot -- a terminal-friendly
equivalent of the timeline views of classic trace tools (Pajé, Vampir).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.trace.analysis import Interval

#: Glyph per operation name; '#' for anything unknown.
GLYPHS = {
    "send": "s",
    "receive": "r",
    "deposit": "d",
    "huffman_block": "H",
    "idct_block": "I",
    "reorder_block": "R",
}


def render_gantt(
    ivals: Iterable[Interval],
    span_ns: Optional[int] = None,
    width: int = 80,
    components: Optional[Sequence[str]] = None,
) -> str:
    """Render intervals as one text lane per component.

    Each of the ``width`` columns covers ``span_ns / width`` of time;
    the glyph shown is the operation that occupied most of that slot
    ('.' = idle).  Components default to first-appearance order.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    ivals = list(ivals)
    if span_ns is None:
        span_ns = max((iv.start_ns + iv.duration_ns for iv in ivals), default=0)
    if span_ns <= 0:
        return "(empty trace)"
    if components is None:
        seen: List[str] = []
        for iv in ivals:
            if iv.component not in seen:
                seen.append(iv.component)
        components = seen

    slot_ns = span_ns / width
    lanes: Dict[str, List[Dict[str, float]]] = {
        c: [dict() for _ in range(width)] for c in components
    }
    for iv in ivals:
        if iv.component not in lanes:
            continue
        end = iv.start_ns + iv.duration_ns
        first = int(iv.start_ns / slot_ns)
        last = min(int(end / slot_ns), width - 1) if iv.duration_ns else first
        for slot in range(first, min(last, width - 1) + 1):
            slot_start = slot * slot_ns
            slot_end = slot_start + slot_ns
            overlap = min(end, slot_end) - max(iv.start_ns, slot_start)
            if overlap <= 0 and iv.duration_ns > 0:
                continue  # interval only touches the slot boundary
            # zero-duration intervals still mark their slot faintly
            occupancy = max(overlap, 1e-9)
            acc = lanes[iv.component][slot]
            acc[iv.name] = acc.get(iv.name, 0.0) + occupancy

    label_w = max(len(c) for c in components)
    lines = [f"{'':{label_w}}  |{'-' * width}| span={span_ns / 1e6:.3f} ms"]
    for comp in components:
        cells = []
        for acc in lanes[comp]:
            if not acc:
                cells.append(".")
            else:
                name = max(acc, key=acc.get)
                cells.append(GLYPHS.get(name, "#"))
        lines.append(f"{comp:{label_w}}  |{''.join(cells)}|")
    legend = ", ".join(f"{g}={n}" for n, g in GLYPHS.items())
    lines.append(f"{'':{label_w}}  legend: {legend}, .=idle, #=other")
    return "\n".join(lines)
