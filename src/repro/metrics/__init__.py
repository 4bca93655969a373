"""Counters, timers, report tables and analyses for observation data."""

from repro.metrics.asciichart import render_xy
from repro.metrics.stats import Counter, Timer
from repro.metrics.table import Table
from repro.metrics.telemetry import (
    Gauge,
    Log2Histogram,
    MetricsRegistry,
    collect_telemetry,
    enable_telemetry,
)
from repro.metrics.export import (
    metrics_digest,
    read_metrics,
    registry_from_payload,
    registry_payload,
    to_prometheus,
    write_metrics,
)
from repro.metrics.dashboard import iter_frames, render_dashboard

__all__ = [
    "Counter",
    "Gauge",
    "Log2Histogram",
    "MetricsRegistry",
    "Table",
    "Timer",
    "collect_telemetry",
    "enable_telemetry",
    "iter_frames",
    "metrics_digest",
    "read_metrics",
    "registry_from_payload",
    "registry_payload",
    "render_dashboard",
    "render_xy",
    "to_prometheus",
    "write_metrics",
]
