"""Table 3 -- MJPEG task time and memory on the STi7200 / OS21.

Paper (578 images, 3 CPUs: ST40 Fetch-Reorder + 2x ST231 IDCT):

    Component       Time (s)   Mem (kB)
    Fetch-Reorder      1 173        110
    IDCTx                 95         85

Shape claims: (1) the general-purpose ST40 runs the merged Fetch-Reorder
~10x longer than an ST231 runs an IDCT task; (2) times are ``task_time``
CPU times, so the IDCT figure is far below the pipeline makespan;
(3) memory is exactly 60 kB task data + 25 kB per distributed object;
(4) the OS21 IDCT is more than an order of magnitude slower than the
Linux IDCT (the paper's 4 s vs ~100 s discussion).
"""

import pytest

from repro.core import OS_LEVEL
from repro.metrics import Table

from benchmarks.conftest import save_result

PAPER_S = {"Fetch-Reorder": 1_173, "IDCT_1": 95, "IDCT_2": 95}
PAPER_MEM_KB = {"Fetch-Reorder": 110, "IDCT_1": 85, "IDCT_2": 85}


def test_table3(sti7200_578):
    os_reports = {n: sti7200_578.reports[(n, OS_LEVEL)] for n in PAPER_S}

    table = Table(
        ["Component", "Time (s)", "Mem (kB)", "paper Time (s)", "paper Mem (kB)"],
        title="Table 3: MJPEG task time and memory (STi7200 sim, 578 images)",
    )
    for name in PAPER_S:
        table.add_row(
            [
                name,
                round(os_reports[name]["exec_time_us"] / 1e6, 1),
                os_reports[name]["memory_kb"],
                PAPER_S[name],
                PAPER_MEM_KB[name],
            ]
        )
    save_result("table3_os21_exec_mem", table.render())

    fr_s = os_reports["Fetch-Reorder"]["exec_time_us"] / 1e6
    idct_s = os_reports["IDCT_1"]["exec_time_us"] / 1e6

    # (1) the ST40 bottleneck ratio
    assert 6 < fr_s / idct_s < 20, (fr_s, idct_s)
    # (2) task_time semantics: IDCT CPU time << makespan
    assert os_reports["IDCT_1"]["exec_time_us"] * 1_000 < sti7200_578.makespan_ns / 3
    # (3) memory exact
    for name in PAPER_S:
        assert os_reports[name]["memory_kb"] == PAPER_MEM_KB[name]
    # (4) absolute scale sanity vs the paper's 1 173 s / 95 s at 578 images
    assert fr_s == pytest.approx(PAPER_S["Fetch-Reorder"], rel=0.30)
    assert idct_s == pytest.approx(PAPER_S["IDCT_1"], rel=0.30)


def test_table3_vs_linux_idct(smp_578, sti7200_578):
    """The paper's cross-platform observation: the OS21 IDCT component
    takes ~25x the Linux IDCT component's time (~4 s vs ~100 s)."""
    linux_us = smp_578.reports[("IDCT_1", OS_LEVEL)]["cpu_time_us"]
    os21_us = sti7200_578.reports[("IDCT_1", OS_LEVEL)]["exec_time_us"]
    table = Table(
        ["Platform", "IDCT CPU time (s)"],
        title="IDCT component: Linux SMP vs OS21 (paper: ~4 s vs ~100 s at 578 images)",
    )
    table.add_row(["Linux SMP sim", round(linux_us / 1e6, 2)])
    table.add_row(["OS21 STi7200 sim", round(os21_us / 1e6, 2)])
    save_result("table3_linux_vs_os21_idct", table.render())
    assert 12 < os21_us / linux_us < 50, (linux_us, os21_us)
