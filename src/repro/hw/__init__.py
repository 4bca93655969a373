"""Hardware platform models.

A :class:`~repro.hw.platform.Platform` bundles CPU cost models
(:class:`~repro.hw.cpu.CpuModel`), memory regions with allocation tracking
(:mod:`repro.hw.memory`), and an interconnect cost model.  Two concrete
platforms reproduce the paper's testbeds:

- :func:`repro.hw.smp16.make_smp16` -- the 16-core AMD Opteron NUMA SMP
  (8 nodes x 2 cores, 3-cube interconnect).
- :func:`repro.hw.sti7200.make_sti7200` -- the STMicroelectronics STi7200
  (1 ST40 general-purpose core + 4 ST231 accelerators, local SRAM plus a
  shared SDRAM window).

Cycle costs are calibrated so the *shape* of the paper's tables and
figures is reproduced (see DESIGN.md section 4); absolute agreement is a
non-goal since the original testbeds are unavailable.

:mod:`repro.hw.cache` adds a set-associative cache simulator used by the
cache-miss observation extension (paper section 6, "ongoing work").
"""

from repro.hw.cache import CacheConfig, CacheSim, CacheStats
from repro.hw.cpu import CpuModel
from repro.hw.memory import AllocationError, MemoryRegion
from repro.hw.platform import Platform
from repro.hw.smp16 import make_smp16
from repro.hw.sti7200 import make_sti7200

__all__ = [
    "AllocationError",
    "CacheConfig",
    "CacheSim",
    "CacheStats",
    "CpuModel",
    "MemoryRegion",
    "Platform",
    "make_smp16",
    "make_sti7200",
]
