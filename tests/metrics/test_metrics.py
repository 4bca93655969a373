"""Unit tests for counters, timers and table rendering."""

import pytest

from repro.metrics import Counter, Table, Timer


def test_counter_increments():
    c = Counter("c")
    c.inc()
    c.inc(5)
    assert c.snapshot() == 6


def test_counter_negative_rejected():
    with pytest.raises(ValueError):
        Counter().inc(-1)


def test_timer_stats():
    t = Timer("t")
    t.record_many([200])
    t.record_many([100, 300])
    assert t.count == 3
    assert t.total_ns == 600
    assert t.mean_ns == 200
    assert t.min_ns == 100
    assert t.max_ns == 300


def test_timer_empty():
    t = Timer()
    assert t.mean_ns == 0.0
    assert t.snapshot()["min_ns"] == 0


def test_timer_negative_rejected():
    t = Timer()
    with pytest.raises(ValueError):
        t.record_many([5, -1])
    assert t.count == 0


def test_table_render_and_dicts():
    t = Table(["Component", "Time (us)"], title="T1")
    t.add_row(["Fetch", 4084])
    t.add_row(["IDCTx", 4084])
    text = t.render()
    assert "T1" in text
    assert "Fetch" in text and "4,084" in text


def test_table_row_width_validated():
    t = Table(["a", "b"])
    with pytest.raises(ValueError):
        t.add_row([1])


def test_table_needs_columns():
    with pytest.raises(ValueError):
        Table([])


def test_asciichart_renders_points_and_legend():
    from repro.metrics.asciichart import render_xy

    out = render_xy(
        [0, 50, 100],
        {"st40": [0, 10, 20], "st231": [0, 5, 10]},
        width=20,
        height=6,
        x_label="size (kB)",
        y_label="time (ms)",
    )
    assert "*" in out and "+" in out
    assert "*=st40" in out and "+=st231" in out
    assert "time (ms)" in out and "size (kB)" in out
    assert out.splitlines()[1].strip().startswith("20")  # y max label


def test_asciichart_monotone_series_plots_monotone_columns():
    from repro.metrics.asciichart import render_xy

    out = render_xy([0, 1, 2, 3], {"s": [0, 1, 2, 3]}, width=12, height=6)
    # strictly increasing values occupy strictly decreasing row indices;
    # scan only the plot rows (marked by the axis bar), not the legend
    cols = []
    for i, line in enumerate(out.splitlines()):
        if " |" not in line:
            continue
        for c, ch in enumerate(line):
            if ch == "*":
                cols.append((c, i))
    cols.sort()
    row_order = [r for _, r in cols]
    assert len(cols) == 4
    assert row_order == sorted(row_order, reverse=True)


def test_asciichart_validation():
    from repro.metrics.asciichart import render_xy

    with pytest.raises(ValueError):
        render_xy([1], {}, width=20, height=6)
    with pytest.raises(ValueError):
        render_xy([1, 2], {"s": [1]}, width=20, height=6)
    with pytest.raises(ValueError):
        render_xy([1], {"s": [1]}, width=5, height=6)
