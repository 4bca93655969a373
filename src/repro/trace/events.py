"""Trace event records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

BEGIN = "B"
INSTANT = "I"
END = "E"

_PHASES = (BEGIN, INSTANT, END)


@dataclass(frozen=True, order=True)
class TraceEvent:
    """One timestamped event.

    Ordering is by timestamp then sequence, so merged multi-component
    traces sort into a coherent global timeline.
    """

    timestamp_ns: int
    seq: int
    component: str = field(compare=False)
    category: str = field(compare=False)  # e.g. "middleware", "lifecycle"
    name: str = field(compare=False)      # e.g. "send", "receive", "compute"
    phase: str = field(compare=False, default=INSTANT)
    args: Dict[str, Any] = field(compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.phase not in _PHASES:
            raise ValueError(f"unknown phase {self.phase!r}; expected one of {_PHASES}")
        if self.timestamp_ns < 0:
            raise ValueError(f"negative timestamp {self.timestamp_ns}")

