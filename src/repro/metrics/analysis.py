"""Cross-component analysis of observation reports.

The paper's section 4.4 reads the observation output by hand: "the
execution times indicate that the application is well load-balanced for
the JPEG input size but if that size changes, the execution times could
cause a bottleneck on the IDCT components".  This module mechanises that
reading: given the ``(component, level) -> data`` dict an observer
collects, it computes load balance, the bottleneck stage, communication
totals and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.observation import APPLICATION_LEVEL, MIDDLEWARE_LEVEL, OS_LEVEL

Reports = Mapping[Tuple[str, str], Dict[str, Any]]


@dataclass(frozen=True)
class BalanceReport:
    """Busy-time balance across components."""

    cpu_time_us: Dict[str, int]
    bottleneck: str
    imbalance: float  # max/mean busy time; 1.0 = perfectly balanced

    @property
    def balanced(self) -> bool:
        """True when imbalance is below the 1.25 threshold."""
        return self.imbalance < 1.25


def _components(reports: Reports, level: str) -> List[str]:
    return sorted({comp for (comp, lvl) in reports if lvl == level})


def load_balance(reports: Reports) -> BalanceReport:
    """Busy-time balance from the OS-level reports.

    Uses CPU time where available (``cpu_time_us``), else exec time --
    matching how one would read Table 1 vs Table 3.
    """
    names = _components(reports, OS_LEVEL)
    if not names:
        raise ValueError("no OS-level reports present")
    busy = {}
    for name in names:
        data = reports[(name, OS_LEVEL)]
        value = data.get("cpu_time_us", data.get("exec_time_us"))
        if value is None:
            raise ValueError(f"report for {name!r} has neither cpu_time_us nor exec_time_us")
        busy[name] = int(value)
    mean = sum(busy.values()) / len(busy)
    bottleneck = max(busy, key=busy.get)
    imbalance = busy[bottleneck] / mean if mean > 0 else 1.0
    return BalanceReport(cpu_time_us=busy, bottleneck=bottleneck, imbalance=imbalance)


def communication_matrix(reports: Reports) -> Dict[str, Dict[str, int]]:
    """Per-component send/receive/bytes totals from application level."""
    out: Dict[str, Dict[str, int]] = {}
    for name in _components(reports, APPLICATION_LEVEL):
        data = reports[(name, APPLICATION_LEVEL)]
        out[name] = {
            "sends": data.get("sends", 0),
            "receives": data.get("receives", 0),
            "bytes_sent": data.get("bytes_sent", 0),
            "bytes_received": data.get("bytes_received", 0),
        }
    return out


def conservation_check(reports: Reports) -> Tuple[int, int]:
    """Total sends vs total receives across the assembly.

    In a quiesced pipeline every data message sent was received, so the
    totals must match; a mismatch means lost or unconsumed messages.
    """
    matrix = communication_matrix(reports)
    sends = sum(m["sends"] for m in matrix.values())
    receives = sum(m["receives"] for m in matrix.values())
    return sends, receives


def middleware_cost_share(reports: Reports) -> Dict[str, float]:
    """Fraction of each component's busy time spent in send+receive.

    High shares flag communication-bound components -- the quantity the
    paper's message-size tuning (section 5.4) aims to reduce.
    """
    out: Dict[str, float] = {}
    for name in _components(reports, MIDDLEWARE_LEVEL):
        mw = reports[(name, MIDDLEWARE_LEVEL)]
        os_data = reports.get((name, OS_LEVEL), {})
        busy_us = os_data.get("cpu_time_us", os_data.get("exec_time_us"))
        if not busy_us:
            continue
        comm_ns = mw["send"]["total_ns"] + mw["receive"]["total_ns"]
        out[name] = min(1.0, comm_ns / (busy_us * 1_000))
    return out


def pipeline_throughput(reports: Reports, makespan_ns: int) -> Optional[float]:
    """Delivered items per simulated second, from whichever component
    deposits finished work (the Reorder/display side)."""
    if makespan_ns <= 0:
        raise ValueError(f"makespan must be positive, got {makespan_ns}")
    total = 0
    found = False
    for (comp, lvl), data in reports.items():
        if lvl == APPLICATION_LEVEL and data.get("deposits", 0) > 0:
            total += data["deposits"]
            found = True
    if not found:
        return None
    return total / (makespan_ns / 1e9)


def backpressure_report(
    series: Mapping[str, List[Tuple[int, int]]]
) -> Dict[str, Dict[str, float]]:
    """Summarise per-mailbox queue-depth time series (from
    :func:`repro.trace.causal.queue_depth_series`).

    For each mailbox: the peak depth, the depth left at the end of the
    trace (non-zero means unconsumed messages -- the display sink, or a
    crashed receiver's backlog) and the time-weighted mean depth, which
    is the backpressure signal: a stage whose input mailbox dwells deep
    is the stage the pipeline is waiting on.
    """
    out: Dict[str, Dict[str, float]] = {}
    for mailbox, points in series.items():
        if not points:
            continue
        peak = max(depth for _, depth in points)
        final = points[-1][1]
        t0, t1 = points[0][0], points[-1][0]
        if t1 > t0:
            weighted = 0.0
            for (t_a, d_a), (t_b, _) in zip(points, points[1:]):
                weighted += d_a * (t_b - t_a)
            mean_depth = weighted / (t1 - t0)
        else:
            mean_depth = float(final)
        out[mailbox] = {
            "peak_depth": peak,
            "final_depth": final,
            "mean_depth": mean_depth,
            "events": len(points),
        }
    return out


def summarize(reports: Reports, makespan_ns: Optional[int] = None) -> Dict[str, Any]:
    """One-call overview combining all analyses."""
    balance = load_balance(reports)
    sends, receives = conservation_check(reports)
    out: Dict[str, Any] = {
        "bottleneck": balance.bottleneck,
        "imbalance": balance.imbalance,
        "balanced": balance.balanced,
        "total_sends": sends,
        "total_receives": receives,
        "messages_conserved": sends == receives,
        "middleware_cost_share": middleware_cost_share(reports),
    }
    if makespan_ns is not None:
        out["throughput_per_s"] = pipeline_throughput(reports, makespan_ns)
    return out
