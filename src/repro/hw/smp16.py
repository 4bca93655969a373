"""The paper's 16-core NUMA SMP: eight dual-core AMD Opteron nodes.

Paper section 4: "eight dual core AMD Opteron 2.2 GHz and 2 MB of cache
memory for each processor ... organized in eight nodes ... 32 GB of main
memory (4 GB of local memory).  Each node has three connections to
communicate with other nodes" -- a degree-3 graph on 8 nodes, modelled as
a 3-cube.

Cycle-cost calibration (see DESIGN.md section 4 for derivations):

- ``huffman_block`` / ``reorder_block`` ~ 108 k cycles and ``idct_block``
  ~ 323 k cycles reproduce Table 1: each pipeline stage is busy ~7.06 ms
  per image, so the three parallel IDCT components balance Fetch and
  Reorder, and 578 images take ~4.08 s per component.
- ``memcpy_byte`` = 5.8 cycles/byte = 2.64 ns/byte reproduces Figure 4's
  near-linear send time reaching ~330 us at 125 kB.
"""

from __future__ import annotations

from repro.hw.cache import CacheConfig
from repro.hw.cpu import CpuModel
from repro.hw.interconnect import NumaCostModel, hypercube_distance_matrix
from repro.hw.memory import MemoryRegion
from repro.hw.platform import Platform

N_NODES = 8
CORES_PER_NODE = 2
FREQ_HZ = 2.2e9
NODE_MEMORY_BYTES = 4 * 1024**3  # 4 GB local memory per node
#: Marginal remote-access cost per hypercube hop (copy factor ``1 + 0.2 * hops``).
HOP_PENALTY = 0.2

OPTERON_CYCLES = {
    "huffman_block": 108_000.0,
    "idct_block": 323_000.0,
    "reorder_block": 108_000.0,
    "memcpy_byte": 5.8,
    "syscall": 1_500.0,
    "sched_switch": 3_000.0,
}


def make_smp16(with_caches: bool = False) -> Platform:
    """Build the 16-core Opteron NUMA platform model."""
    cores = [
        CpuModel(f"opteron{i}", FREQ_HZ, OPTERON_CYCLES) for i in range(N_NODES * CORES_PER_NODE)
    ]
    core_nodes = [i // CORES_PER_NODE for i in range(len(cores))]
    regions = {
        f"node{n}": MemoryRegion(f"node{n}", NODE_MEMORY_BYTES, node=n, kind="dram")
        for n in range(N_NODES)
    }
    numa = NumaCostModel(hypercube_distance_matrix(N_NODES), hop_penalty=HOP_PENALTY)
    cache_config = CacheConfig(size_bytes=2 * 1024 * 1024, line_bytes=64, ways=8) if with_caches else None
    return Platform(
        "smp16",
        cores=cores,
        core_nodes=core_nodes,
        regions=regions,
        numa=numa,
        cache_config=cache_config,
    )
