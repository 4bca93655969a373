"""The decisions of the speed gates in ``benchmarks/test_perf_gates.py``,
on synthetic samples: the gates themselves time real code and run
outside the tier-1 suite."""

import pytest

from benchmarks.test_perf_gates import (
    PARENT_EMIT_RATIO,
    PARENT_SCHEDULE_RATIO,
    decode_verdict,
    loop_verdict,
    metrics_verdict,
    micro_verdict,
    scale_verdict,
)


def _around(median):
    """Ten samples with the given median and a 10% spread."""
    return [median * f for f in (0.9, 0.95, 0.97, 0.99, 1.0, 1.0, 1.01, 1.03, 1.05, 1.1)]


@pytest.mark.parametrize("parent", [PARENT_SCHEDULE_RATIO, PARENT_EMIT_RATIO])
def test_micro_gate_allows_25_percent_over_the_parent_ratio(parent):
    passing = micro_verdict(_around(1.24 * parent), parent)
    assert passing.ok
    assert passing.median == pytest.approx(1.24 * parent)
    assert passing.bound == pytest.approx(1.25 * parent)
    assert passing.q1 < passing.median < passing.q3
    assert not micro_verdict(_around(1.26 * parent), parent).ok


def test_metrics_budget_needs_both_ratios_under_it():
    assert metrics_verdict([1.0] * 10, [1.04] * 10).ok
    # Best-of-arm ratio 1.0 / 0.9 over budget, every other pair at 1.0.
    best_only = metrics_verdict([0.9] + [1.0] * 9, [1.0] * 10)
    assert best_only.median == 1.0 and not best_only.ok
    # Fastest arms tie, but seven of ten pairs cost 10% more.
    median_only = metrics_verdict([1.0] * 10, [1.0] * 3 + [1.1] * 7)
    assert median_only.median == pytest.approx(1.1) and not median_only.ok


def test_sim_scale_fails_on_a_single_slow_repetition():
    assert scale_verdict([3.0, 2.9, 1.5]).ok
    verdict = scale_verdict([3.0, 2.9, 1.49])
    assert verdict.median == 2.9 and not verdict.ok


def test_entropy_decode_gate_is_a_median_floor():
    assert decode_verdict(_around(3.0)).ok
    assert not decode_verdict(_around(2.99)).ok


def test_entropy_decode_loop_gate_is_a_median_floor():
    assert loop_verdict(_around(1.7)).ok
    assert not loop_verdict(_around(1.69)).ok
