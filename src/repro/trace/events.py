"""Trace event records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

BEGIN = "B"
INSTANT = "I"
END = "E"

_PHASES = (BEGIN, INSTANT, END)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event.

    Equality covers every field.  Ordering is by timestamp then
    sequence only, so merged multi-component traces sort into a
    coherent global timeline.
    """

    timestamp_ns: int
    seq: int
    component: str
    category: str  # e.g. "middleware", "lifecycle"
    name: str      # e.g. "send", "receive", "compute"
    phase: str = INSTANT
    args: Dict[str, Any] = field(default_factory=dict, hash=False)

    def __lt__(self, other: "TraceEvent") -> bool:
        return (self.timestamp_ns, self.seq) < (other.timestamp_ns, other.seq)

    def __le__(self, other: "TraceEvent") -> bool:
        return (self.timestamp_ns, self.seq) <= (other.timestamp_ns, other.seq)

    def __gt__(self, other: "TraceEvent") -> bool:
        return (self.timestamp_ns, self.seq) > (other.timestamp_ns, other.seq)

    def __ge__(self, other: "TraceEvent") -> bool:
        return (self.timestamp_ns, self.seq) >= (other.timestamp_ns, other.seq)

    def __post_init__(self) -> None:
        if self.phase not in _PHASES:
            raise ValueError(f"unknown phase {self.phase!r}; expected one of {_PHASES}")
        if self.timestamp_ns < 0:
            raise ValueError(f"negative timestamp {self.timestamp_ns}")

