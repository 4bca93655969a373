"""Memory regions with allocation tracking.

Regions model physical memory blocks (a NUMA node's local DRAM, an ST231's
local SRAM, the STi7200's shared SDRAM window).  Allocation is tracked by
named handles so OS substrates can answer the paper's memory-observation
queries (component stack size, interface structures, distributed objects)
and the memory-evolution extension can sample high-water marks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class AllocationError(Exception):
    """Raised when a region cannot satisfy an allocation."""


class MemoryRegion:
    """A fixed-size memory block with named allocations."""

    def __init__(self, name: str, size_bytes: int, node: int = 0, kind: str = "dram") -> None:
        if size_bytes <= 0:
            raise AllocationError(f"region size must be positive, got {size_bytes}")
        self.name = name
        self.size_bytes = int(size_bytes)
        self.node = node
        self.kind = kind
        self.used_bytes = 0
        self.peak_bytes = 0
        self._allocations: Dict[int, Tuple[str, int]] = {}
        self._next_handle = 1
        self._timeline: List[Tuple[int, int]] = []  # (time_ns, used_bytes) samples

    def alloc(self, nbytes: int, label: str = "", time_ns: int = 0) -> int:
        """Allocate ``nbytes``; returns a handle for :meth:`free`."""
        if nbytes < 0:
            raise AllocationError(f"negative allocation: {nbytes}")
        if self.used_bytes + nbytes > self.size_bytes:
            raise AllocationError(
                f"region {self.name!r} exhausted: {self.used_bytes} used, "
                f"{nbytes} requested, {self.size_bytes} capacity"
            )
        handle = self._next_handle
        self._next_handle += 1
        self._allocations[handle] = (label, int(nbytes))
        self.used_bytes += int(nbytes)
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self._timeline.append((time_ns, self.used_bytes))
        return handle

    def free(self, handle: int, time_ns: int = 0) -> None:
        """Release a previous allocation."""
        try:
            _, nbytes = self._allocations.pop(handle)
        except KeyError:
            raise AllocationError(f"unknown allocation handle {handle}") from None
        self.used_bytes -= nbytes
        self._timeline.append((time_ns, self.used_bytes))

    def timeline(self) -> List[Tuple[int, int]]:
        """(time_ns, used_bytes) samples -- the memory-evolution extension."""
        return list(self._timeline)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MemoryRegion {self.name} {self.used_bytes}/{self.size_bytes} B "
            f"node={self.node}>"
        )
