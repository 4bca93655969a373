"""Table 2 -- communication operations performed per component.

Paper (578 / 3000 images):

    Component   send578   recv578   send3000   recv3000
    Fetch        10 386         0     53 982          0
    IDCTx         3 462     3 462     17 994     17 994
    Reorder           0    10 386          0     53 982

These counts are structural (18 block messages per image after the
priming frame, fanned over 3 IDCTs), so they reproduce **exactly**:
``send = 18 * (N - 1)`` -- 10 386 = 18 x 577 and 53 982 = 18 x 2 999.
The assertions check both the formula and the paper's literal numbers.
"""

from repro.core import APPLICATION_LEVEL
from repro.metrics import Table

from benchmarks.conftest import save_result

COMPONENTS = ("Fetch", "IDCT_1", "IDCT_2", "IDCT_3", "Reorder")


def counts(decode):
    return {
        name: (
            decode.reports[(name, APPLICATION_LEVEL)]["sends"],
            decode.reports[(name, APPLICATION_LEVEL)]["receives"],
        )
        for name in COMPONENTS
    }


def test_table2(smp_578, smp_3000):
    small = counts(smp_578)
    large = counts(smp_3000)

    table = Table(
        ["Component", "send578", "recv578", "send3000", "recv3000"],
        title="Table 2: MJPEG components communication operations (SMP sim)",
    )
    for name in COMPONENTS:
        table.add_row([name, *small[name], *large[name]])
    save_result("table2_comm_counts", table.render())

    for n_images, got in ((578, small), (3000, large)):
        total = 18 * (n_images - 1)
        assert got["Fetch"] == (total, 0)
        assert got["Reorder"] == (0, total)
        for i in (1, 2, 3):
            assert got[f"IDCT_{i}"] == (total // 3, total // 3)

    assert small["Fetch"] == (10_386, 0)
    assert small["IDCT_1"] == (3_462, 3_462)
    assert small["Reorder"] == (0, 10_386)
    assert large["Fetch"] == (53_982, 0)
    assert large["IDCT_1"] == (17_994, 17_994)
    assert large["Reorder"] == (0, 53_982)
