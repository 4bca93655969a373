"""Order statistics for benchmark samples.

Quartiles use :func:`statistics.quantiles` with the inclusive method, so
they stay inside the range of a small sample (a run has 3 to ~10 timed
iterations); percentiles interpolate linearly between order statistics.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` of a non-empty sample."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100), linearly interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be within [0, 100], got {p}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values: Sequence[float], unit: str) -> Dict:
    """Median, quartiles and count of a sample, keeping the raw values
    so two sets can be compared run by run."""
    q1, median, q3 = quartiles(values)
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }


def spread(summary: Dict) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    median = summary["median"]
    if not median:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(median)
