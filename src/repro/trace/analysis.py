"""Trace analyses: timelines, matched intervals, duration summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.trace.events import BEGIN, END, TraceEvent


@dataclass(frozen=True)
class Interval:
    """A matched begin/end pair."""

    component: str
    category: str
    name: str
    start_ns: int
    duration_ns: int
    args: dict


def intervals(events: Iterable[TraceEvent]) -> List[Interval]:
    """Match BEGIN/END pairs per (component, category, name).

    Nested pairs of the same key match LIFO (inner END closes the most
    recent BEGIN).  Unmatched BEGINs are dropped; an END with no open
    BEGIN raises, as it indicates a corrupted trace.
    """
    stacks: Dict[Tuple[str, str, str], List[TraceEvent]] = {}
    out: List[Interval] = []
    for event in sorted(events):
        key = (event.component, event.category, event.name)
        if event.phase == BEGIN:
            stacks.setdefault(key, []).append(event)
        elif event.phase == END:
            stack = stacks.get(key)
            if not stack:
                raise ValueError(f"END without BEGIN for {key} at {event.timestamp_ns}")
            begin = stack.pop()
            out.append(
                Interval(
                    component=event.component,
                    category=event.category,
                    name=event.name,
                    start_ns=begin.timestamp_ns,
                    duration_ns=event.timestamp_ns - begin.timestamp_ns,
                    args=dict(begin.args),
                )
            )
    out.sort(key=lambda iv: (iv.start_ns, iv.component))
    return out


def summarize_durations(ivals: Iterable[Interval]) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Per (component, name) duration statistics over matched intervals."""
    acc: Dict[Tuple[str, str], List[int]] = {}
    for iv in ivals:
        acc.setdefault((iv.component, iv.name), []).append(iv.duration_ns)
    out: Dict[Tuple[str, str], Dict[str, float]] = {}
    for key, durations in acc.items():
        out[key] = {
            "count": len(durations),
            "total_ns": sum(durations),
            "mean_ns": sum(durations) / len(durations),
            "min_ns": min(durations),
            "max_ns": max(durations),
        }
    return out


def busy_fraction(ivals: Iterable[Interval], component: str, span_ns: int) -> float:
    """Fraction of ``span_ns`` the component spent inside intervals.

    Overlapping intervals (compute containing a send, say) are unioned.
    """
    if span_ns <= 0:
        raise ValueError(f"span must be positive, got {span_ns}")
    spans = sorted(
        (iv.start_ns, iv.start_ns + iv.duration_ns)
        for iv in ivals
        if iv.component == component
    )
    busy = 0
    cur_start: Optional[int] = None
    cur_end = 0
    for start, end in spans:
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            busy += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        busy += cur_end - cur_start
    return min(1.0, busy / span_ns)
