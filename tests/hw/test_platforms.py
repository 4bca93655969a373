"""Unit tests for the interconnect helpers and concrete platforms."""

import numpy as np
import pytest

from repro.hw import CpuModel, MemoryRegion, Platform, make_smp16, make_sti7200
from repro.hw.interconnect import NumaCostModel, hypercube_distance_matrix
from repro.hw.smp16 import OPTERON_CYCLES
from repro.hw.sti7200 import ST231_CORES, ST40_CORE


def test_hypercube_matrix_symmetric_and_degree3():
    m = hypercube_distance_matrix(8)
    assert (m == m.T).all()
    assert (np.diag(m) == 0).all()
    # each node has exactly 3 neighbours at distance 1
    assert ((m == 1).sum(axis=1) == 3).all()
    # hop count is the Hamming distance of the node ids
    assert (m[0, 1], m[0, 7], m[5, 6]) == (1, 3, 2)


def test_hypercube_matrix_requires_power_of_two():
    with pytest.raises(ValueError):
        hypercube_distance_matrix(6)


def test_numa_cost_factor_affine_in_hops():
    m = NumaCostModel(hypercube_distance_matrix(8), hop_penalty=0.25)
    assert m.cost_factor(0, 0) == 1.0
    assert m.cost_factor(0, 1) == 1.25
    assert m.cost_factor(0, 7) == pytest.approx(1.75)


def test_numa_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        NumaCostModel(np.array([[0, 1], [2, 0]]))


def test_smp16_shape():
    p = make_smp16()
    assert p.n_cores == 16
    assert p.core_nodes == [i // 2 for i in range(16)]
    assert len(p.regions) == 8
    assert p.total_memory_bytes() == 32 * 1024**3
    assert p.caches is None


def test_smp16_with_caches():
    p = make_smp16(with_caches=True)
    assert p.caches is not None and len(p.caches) == 16
    assert p.cache_of_core(3).config.size_bytes == 2 * 1024 * 1024


def test_smp16_send_slope_matches_figure4():
    """2.64 ns/byte -> ~338 us for a local 125 kB message (Figure 4)."""
    p = make_smp16()
    cost = p.cores[0].cost_ns("memcpy_byte", 125 * 1024)
    assert 300_000 < cost < 380_000


def test_smp16_stage_balance_matches_table1():
    """Per-image: fetch ~ reorder ~ idct/3 (the paper's balanced pipeline)."""
    cpu = CpuModel("opteron", 2.2e9, OPTERON_CYCLES)
    blocks = 144  # one 96x96 image
    fetch = cpu.cost_ns("huffman_block", blocks)
    idct_per_component = cpu.cost_ns("idct_block", blocks / 3)
    reorder = cpu.cost_ns("reorder_block", blocks)
    assert fetch == pytest.approx(idct_per_component, rel=0.05)
    assert reorder == pytest.approx(fetch, rel=0.05)
    # ~7 ms per image per stage -> ~4.08 s for 578 images
    assert fetch * 578 == pytest.approx(4.08e9, rel=0.05)


def test_sti7200_shape():
    p = make_sti7200()
    assert p.n_cores == 5
    assert p.cores[ST40_CORE].name == "st40"
    assert all(p.cores[i].name.startswith("st231") for i in ST231_CORES)
    assert p.region("sdram").size_bytes == 2 * 1024**3
    assert p.region("st231_0_local").size_bytes == 1024**2


def test_sti7200_memcpy_asymmetry_matches_figure8():
    """ST40 per-byte send cost must exceed ST231's (Figure 8 ordering)."""
    p = make_sti7200()
    st40 = p.cores[ST40_CORE].cost_ns("memcpy_byte", 1024)
    st231 = p.cores[ST231_CORES[0]].cost_ns("memcpy_byte", 1024)
    assert st40 > 1.5 * st231


def test_sti7200_task_times_match_table3():
    """913k cycles/block -> ~95 s per IDCT; ST40 fetch+reorder -> ~1173 s."""
    p = make_sti7200()
    st231 = p.cores[1]
    idct_s = st231.cost_ns("idct_block", 578 * 72) / 1e9
    assert idct_s == pytest.approx(95, rel=0.05)
    st40 = p.cores[0]
    fr_s = (
        st40.cost_ns("huffman_block", 578 * 144) + st40.cost_ns("reorder_block", 578 * 144)
    ) / 1e9
    assert fr_s == pytest.approx(1173, rel=0.05)
    # the paper's ~10x ratio between Fetch-Reorder and IDCT tasks
    assert 8 < fr_s / idct_s < 16


def test_platform_copy_factor_uniform_when_no_numa():
    p = Platform(
        "flat",
        cores=[CpuModel("c", 1e9)],
        core_nodes=[0],
        regions={"m": MemoryRegion("m", 1024)},
    )
    assert p.copy_factor(0, 3) == 1.0


def test_platform_copy_factor_table_matches_the_numa_model():
    p = make_smp16()
    numa = p.numa
    for core in range(p.n_cores):
        for node in range(numa.n_nodes):
            expected = 1.0 + numa.hop_penalty * numa.hops(p.node_of_core(core), node)
            assert p.copy_factor(core, node) == expected
            assert type(p.copy_factor(core, node)) is float


def test_platform_validation():
    with pytest.raises(ValueError):
        Platform("bad", cores=[CpuModel("c", 1e9)], core_nodes=[0, 1], regions={})
    with pytest.raises(ValueError):
        Platform("empty", cores=[], core_nodes=[], regions={})


def test_platform_unknown_region_message():
    p = make_sti7200()
    with pytest.raises(KeyError, match="sdram"):
        p.region("nope")
