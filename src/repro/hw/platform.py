"""Platform container: cores + memory regions + interconnect cost model."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.hw.cache import CacheConfig, CacheSim
from repro.hw.cpu import CpuModel
from repro.hw.interconnect import NumaCostModel
from repro.hw.memory import MemoryRegion


class Platform:
    """A modelled machine.

    Parameters
    ----------
    name:
        Human-readable platform id (``"smp16"``, ``"sti7200"``).
    cores:
        One :class:`CpuModel` per hardware core, indexed by core id.
    core_nodes:
        NUMA node (memory domain) of each core.
    regions:
        Named memory regions.
    numa:
        Optional NUMA copy-cost model over the node ids used in
        ``core_nodes``; ``None`` means uniform memory.
    cache_config:
        When given, each core gets a private :class:`CacheSim` used by the
        cache-miss observation extension.
    """

    def __init__(
        self,
        name: str,
        cores: Sequence[CpuModel],
        core_nodes: Sequence[int],
        regions: Dict[str, MemoryRegion],
        numa: Optional[NumaCostModel] = None,
        cache_config: Optional[CacheConfig] = None,
    ) -> None:
        if len(cores) != len(core_nodes):
            raise ValueError(
                f"{len(cores)} cores but {len(core_nodes)} node assignments"
            )
        if not cores:
            raise ValueError("a platform needs at least one core")
        self.name = name
        self.cores: List[CpuModel] = list(cores)
        self.core_nodes: List[int] = list(core_nodes)
        self.regions = dict(regions)
        self.numa = numa
        #: ``numa.cost_factor`` from each core's node into each node, built
        #: once so a copy reads its multiplier with two list indexes.
        self._copy_factors: Optional[List[List[float]]] = (
            [[numa.cost_factor(node, dst) for dst in range(numa.n_nodes)] for node in core_nodes]
            if numa is not None
            else None
        )
        self.caches: Optional[List[CacheSim]] = (
            [CacheSim(cache_config) for _ in cores] if cache_config else None
        )

    @property
    def n_cores(self) -> int:
        """Number of modelled cores."""
        return len(self.cores)

    def node_of_core(self, core_idx: int) -> int:
        """NUMA node (memory domain) of a core."""
        return self.core_nodes[core_idx]

    def region(self, name: str) -> MemoryRegion:
        """Look up a memory region by name (KeyError lists options)."""
        try:
            return self.regions[name]
        except KeyError:
            raise KeyError(
                f"platform {self.name!r} has no region {name!r}; "
                f"available: {sorted(self.regions)}"
            ) from None

    def copy_factor(self, src_core: int, dst_node: int) -> float:
        """Per-byte cost multiplier for a copy from ``src_core`` into memory
        homed on ``dst_node`` (1.0 on uniform-memory platforms)."""
        if self._copy_factors is None:
            return 1.0
        return self._copy_factors[src_core][dst_node]

    def cache_of_core(self, core_idx: int) -> Optional[CacheSim]:
        """The core's private cache model, or None."""
        return self.caches[core_idx] if self.caches is not None else None

    def total_memory_bytes(self) -> int:
        """Sum of all region capacities."""
        return sum(r.size_bytes for r in self.regions.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Platform {self.name} cores={self.n_cores}>"
