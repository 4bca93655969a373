"""Set-associative cache simulator (LRU).

This backs the paper's *ongoing work* item "observing cache misses": the
simulated middleware feeds the address ranges it copies through a per-core
cache model, and the observation layer reports hit/miss counters per
component.

The simulator takes the sequential ranges produced by message copies
(``access_range``), touching each cache line of a range once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int = 2 * 1024 * 1024  # the Opterons' 2 MB L2 (paper sec. 4)
    line_bytes: int = 64
    ways: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError(
                f"size {self.size_bytes} not divisible by line*ways "
                f"({self.line_bytes}*{self.ways})"
            )

    @property
    def n_sets(self) -> int:
        """Number of cache sets implied by the geometry."""
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass
class CacheStats:
    """Aggregate access counters."""

    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    evictions: int = field(default=0, init=False)

    @property
    def accesses(self) -> int:
        """Total accesses (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """misses / accesses (0.0 when no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain snapshot of the current state (for reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "miss_rate": self.miss_rate,
        }


class CacheSim:
    """LRU set-associative cache over a flat physical address space."""

    def __init__(self, config: CacheConfig = CacheConfig()) -> None:
        self.config = config
        self.stats = CacheStats()
        # One OrderedDict per set: tag -> None, most-recent last.
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(config.n_sets)]

    def _touch_line(self, line_addr: int) -> bool:
        """Access one line; returns True on hit."""
        set_idx = line_addr % self.config.n_sets
        tag = line_addr // self.config.n_sets
        ways = self._sets[set_idx]
        if tag in ways:
            ways.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.config.ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
        ways[tag] = None
        return False

    def access_range(self, start: int, nbytes: int) -> int:
        """Sequentially access ``[start, start+nbytes)``; returns misses.

        Each cache line of the range is touched once, matching a
        streaming copy.
        """
        if nbytes < 0:
            raise ValueError(f"negative range length {nbytes}")
        if nbytes == 0:
            return 0
        line = self.config.line_bytes
        first = start // line
        last = (start + nbytes - 1) // line
        before = self.stats.misses
        for line_addr in range(first, last + 1):
            self._touch_line(line_addr)
        return self.stats.misses - before

