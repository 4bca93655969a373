"""Aggregating metric primitives.

These are what the EMBera observation probes accumulate: plain counters
(communication operations, Table 2), duration timers (send/receive
execution times, Figures 4 and 8) and memory statistics (Tables 1 and 3).
All durations are integer nanoseconds; presentation layers convert.
"""

from __future__ import annotations

from typing import Dict, Optional


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

    def reset(self) -> None:
        """Zero the counter in place (registry ``clear()``)."""
        self.value = 0

    def snapshot(self) -> int:
        """Plain snapshot of the current state (for reports)."""
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Timer:
    """Streaming duration statistics: count / total / min / max / mean.

    Also tracks the sum of squares so a variance is available without
    retaining samples -- observation must stay lightweight on target.
    """

    __slots__ = ("name", "count", "total_ns", "min_ns", "max_ns", "_sumsq")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None
        self._sumsq = 0.0

    def record(self, duration_ns: int) -> None:
        """Record one duration sample (nanoseconds)."""
        if duration_ns < 0:
            raise ValueError(f"negative duration: {duration_ns}")
        self.count += 1
        self.total_ns += duration_ns
        self._sumsq += float(duration_ns) ** 2
        self.min_ns = duration_ns if self.min_ns is None else min(self.min_ns, duration_ns)
        self.max_ns = duration_ns if self.max_ns is None else max(self.max_ns, duration_ns)

    @property
    def mean_ns(self) -> float:
        """Mean duration in nanoseconds (0.0 when empty)."""
        return self.total_ns / self.count if self.count else 0.0

    @property
    def variance_ns2(self) -> float:
        """Population variance of the samples (ns^2)."""
        if self.count < 2:
            return 0.0
        mean = self.mean_ns
        return max(0.0, self._sumsq / self.count - mean * mean)

    def merge(self, other: "Timer") -> None:
        """Fold another timer's samples into this one."""
        if other.count == 0:
            return
        self.count += other.count
        self.total_ns += other.total_ns
        self._sumsq += other._sumsq
        self.min_ns = other.min_ns if self.min_ns is None else min(self.min_ns, other.min_ns)
        self.max_ns = other.max_ns if self.max_ns is None else max(self.max_ns, other.max_ns)

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


class MemoryStats:
    """Byte-granular memory report for one component."""

    __slots__ = ("stack_bytes", "interface_bytes", "heap_bytes")

    def __init__(self, stack_bytes: int = 0, interface_bytes: int = 0, heap_bytes: int = 0) -> None:
        self.stack_bytes = stack_bytes
        self.interface_bytes = interface_bytes
        self.heap_bytes = heap_bytes

    @property
    def total_bytes(self) -> int:
        """Total footprint in bytes."""
        return self.stack_bytes + self.interface_bytes + self.heap_bytes

    @property
    def total_kb(self) -> float:
        """Total footprint in kilobytes (1 kB = 1024 B)."""
        return self.total_bytes / 1024

    def snapshot(self) -> Dict[str, int]:
        """Plain snapshot of the current state (for reports)."""
        return {
            "stack_bytes": self.stack_bytes,
            "interface_bytes": self.interface_bytes,
            "heap_bytes": self.heap_bytes,
            "total_bytes": self.total_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MemoryStats total={self.total_kb:.0f}kB>"
