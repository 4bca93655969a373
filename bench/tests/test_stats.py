import pytest

from bench.hostspeed import REFERENCE_S, SENSITIVITY, speed_factor, yardstick
from bench.stats import percentile, quartiles, spread, summarize


def test_quartiles_odd_sample():
    assert quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)


def test_quartiles_interpolate_inside_the_range():
    assert quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)


def test_quartiles_single_value():
    assert quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_quartiles_reject_empty():
    with pytest.raises(ValueError):
        quartiles([])


def test_percentile_interpolates_linearly():
    values = list(range(101))
    assert percentile(values, 99) == 99
    assert percentile(values, 50) == 50
    assert percentile([1, 2], 50) == 1.5
    assert percentile([3, 1, 2], 0) == 1
    assert percentile([3, 1, 2], 100) == 3
    assert percentile([10, 20, 30, 40], 90) == pytest.approx(37.0)


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summary_and_spread():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0], "s")
    assert (s["median"], s["q1"], s["q3"], s["n"], s["unit"]) == (3.0, 2.0, 4.0, 5, "s")
    assert s["samples"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spread(s) == pytest.approx(2.0 / 3.0)
    assert spread(summarize([2.0], "s")) == 0.0


def test_speed_factor_scales_to_the_reference_host():
    assert speed_factor([REFERENCE_S]) == 1.0
    assert speed_factor([REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(
        0.5 ** SENSITIVITY
    )
    assert yardstick(100) == yardstick(100)
