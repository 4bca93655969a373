"""Table 1 -- MJPEG component execution time and memory on the SMP.

Paper (578 / 3000 images, microseconds / kB):

    Component   Time578 (us)   Time3000 (us)   Mem (kB)
    Fetch          4 084 000      20 088 000      8 392
    IDCTx          4 084 000      20 218 000     10 850
    Reorder        4 086 000      21 538 000     13 308

Shape claims checked here: (1) the three parallel IDCTs balance the
pipeline, so all components' wall times agree within ~35%; (2) time grows
linearly with the image count; (3) memory is exactly stack 8 392 kB plus
2 458 kB per functional provided interface; (4) completion order is
Fetch <= IDCT <= Reorder, as in the paper's rows.
"""

import pytest

from repro.core import OS_LEVEL
from repro.metrics import Table

from benchmarks.conftest import save_result

COMPONENTS = ("Fetch", "IDCT_1", "IDCT_2", "IDCT_3", "Reorder")

PAPER_US = {  # Table 1, grouped IDCT row expanded
    "Fetch": (4_084_000, 20_088_000),
    "IDCT_1": (4_084_000, 20_218_000),
    "IDCT_2": (4_084_000, 20_218_000),
    "IDCT_3": (4_084_000, 20_218_000),
    "Reorder": (4_086_000, 21_538_000),
}
PAPER_MEM_KB = {
    "Fetch": 8_392,
    "IDCT_1": 10_850,
    "IDCT_2": 10_850,
    "IDCT_3": 10_850,
    "Reorder": 13_308,
}


def test_table1(smp_578, smp_3000):
    os_small = {name: smp_578.reports[(name, OS_LEVEL)] for name in COMPONENTS}
    os_large = {name: smp_3000.reports[(name, OS_LEVEL)] for name in COMPONENTS}

    table = Table(
        ["Component", "Time578 (us)", "Time3000 (us)", "Mem (kB)",
         "paper Time578 (us)", "paper Mem (kB)"],
        title="Table 1: MJPEG components execution time and memory (SMP sim)",
    )
    for name in COMPONENTS:
        table.add_row(
            [
                name,
                os_small[name]["exec_time_us"],
                os_large[name]["exec_time_us"],
                os_small[name]["memory_kb"],
                PAPER_US[name][0],
                PAPER_MEM_KB[name],
            ]
        )
    save_result("table1_smp_exec_mem", table.render())

    # (1) balance across components
    small_times = [os_small[n]["exec_time_us"] for n in COMPONENTS]
    assert max(small_times) / min(small_times) < 1.35, small_times
    # (2) linear growth with image count
    ratio = os_large["Fetch"]["exec_time_us"] / os_small["Fetch"]["exec_time_us"]
    expected = 3000 / 578
    assert expected * 0.8 < ratio < expected * 1.2, ratio
    # (3) memory exact
    for name in COMPONENTS:
        assert os_small[name]["memory_kb"] == PAPER_MEM_KB[name]
    # (4) completion ordering matches the paper's rows
    assert (
        os_small["Fetch"]["exec_time_us"]
        <= os_small["IDCT_1"]["exec_time_us"]
        <= os_small["Reorder"]["exec_time_us"]
    )
    # (5) absolute scale sanity: per-image stage time ~7 ms (model target)
    per_image_us = os_small["Fetch"]["exec_time_us"] / 578
    assert per_image_us == pytest.approx(7_066, rel=0.25)
