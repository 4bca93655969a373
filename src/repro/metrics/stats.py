"""Aggregating metric primitives.

These are what the EMBera observation probes accumulate: plain counters
(communication operations, Table 2) and duration timers (send/receive
execution times, Figures 4 and 8).  All durations are integer
nanoseconds; presentation layers convert.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Increment by ``n`` (default 1)."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def snapshot(self) -> int:
        """Plain snapshot of the current state (for reports)."""
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Timer:
    """Streaming duration statistics: count / total / min / max / mean,
    kept without retaining samples -- observation must stay lightweight
    on target.
    """

    __slots__ = ("name", "count", "total_ns", "min_ns", "max_ns")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None

    def record_many(self, durations: Sequence[int]) -> None:
        """Record a batch of duration samples (nanoseconds).

        Only integer count, total, min and max change, so any split of a
        stream into batches leaves the same timer.  A negative sample
        raises ``ValueError`` before anything changes."""
        if not durations:
            return
        low = min(durations)
        if low < 0:
            raise ValueError(f"negative duration: {low}")
        high = max(durations)
        self.count += len(durations)
        self.total_ns += sum(durations)
        if self.min_ns is None or low < self.min_ns:
            self.min_ns = low
        if self.max_ns is None or high > self.max_ns:
            self.max_ns = high

    def merge(self, other: "Timer") -> None:
        """Add ``other``'s samples (count, total, min and max merge
        exactly)."""
        if not other.count:
            return
        self.count += other.count
        self.total_ns += other.total_ns
        if self.min_ns is None or other.min_ns < self.min_ns:
            self.min_ns = other.min_ns
        if self.max_ns is None or other.max_ns > self.max_ns:
            self.max_ns = other.max_ns

    @property
    def mean_ns(self) -> float:
        """Mean duration in nanoseconds (0.0 when empty)."""
        return self.total_ns / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain snapshot of the current state (for reports)."""
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "mean_ns": self.mean_ns,
            "min_ns": self.min_ns if self.min_ns is not None else 0,
            "max_ns": self.max_ns if self.max_ns is not None else 0,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Timer {self.name} n={self.count} mean={self.mean_ns:.0f}ns>"

