"""``repro top``: the live ascii dashboard over the telemetry plane.

Renders a :class:`~repro.metrics.telemetry.MetricsRegistry`
as a terminal frame: run totals, a per-component table with the tail
percentiles the streaming-server ROADMAP item asks for, contract
violations, and a per-window throughput/latency chart built from the
registry's delta series via :func:`repro.metrics.asciichart.render_xy`.

:func:`iter_frames` replays the windowed series cumulatively -- one
frame per window -- which is what ``repro top --watch`` animates (the
sim produces its whole timeline before the dashboard draws, so "live"
means live *on the sim clock*, refreshed per telemetry window).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.metrics.asciichart import render_xy
from repro.metrics.table import Table
from repro.metrics.telemetry import Log2Histogram, MetricsRegistry, bucket_bounds

#: ANSI "clear screen + home" prefix used between --watch frames.
CLEAR = "\x1b[2J\x1b[H"


def _fmt_ns(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.2f}s"
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.1f}us"
    return f"{value:.0f}ns"


def _component_rows(registry: MetricsRegistry) -> List[List[Any]]:
    """One row per component: traffic, tail latencies, robustness."""
    by_comp: Dict[str, Dict[str, Any]] = {}

    def slot(labels: Dict[str, Any]) -> Dict[str, Any]:
        comp = labels.get("component", "?")
        return by_comp.setdefault(comp, {
            "sent": 0, "received": 0, "recv_hist": None, "lat_hist": None,
            "busy_ns": 0, "queue": 0, "restarts": 0, "violations": 0,
        })

    for kind, name, labels, inst in registry.instruments():
        if "component" not in labels:
            continue
        entry = slot(labels)
        if name == "messages_sent_total":
            entry["sent"] += inst.value
        elif name == "messages_received_total":
            entry["received"] += inst.value
        elif name == "receive_duration_ns":
            if entry["recv_hist"] is None:
                entry["recv_hist"] = Log2Histogram()
            entry["recv_hist"].merge(inst)
        elif name == "delivery_latency_ns":
            if entry["lat_hist"] is None:
                entry["lat_hist"] = Log2Histogram()
            entry["lat_hist"].merge(inst)
        elif name == "busy_ns":
            entry["busy_ns"] = max(entry["busy_ns"], inst.value)
        elif name == "queue_depth":
            entry["queue"] += inst.value
        elif name == "restarts_total":
            entry["restarts"] += inst.value
        elif name == "contract_violations_total":
            entry["violations"] += inst.value

    rows = []
    for comp in sorted(by_comp):
        e = by_comp[comp]
        recv = e["recv_hist"]
        lat = e["lat_hist"]
        rows.append([
            comp,
            e["sent"],
            e["received"],
            _fmt_ns(recv.percentile(0.99)) if recv and recv.count else "-",
            _fmt_ns(lat.percentile(0.50)) if lat and lat.count else "-",
            _fmt_ns(lat.percentile(0.99)) if lat and lat.count else "-",
            _fmt_ns(e["busy_ns"]) if e["busy_ns"] else "-",
            int(e["queue"]),
            e["restarts"],
            e["violations"],
        ])
    return rows


def _window_series(registry: MetricsRegistry) -> Tuple[List[float], Dict[str, List[float]]]:
    """Per-window x (window end, ms) and y series (msgs/window, mean
    delivery latency) from the delta windows."""
    xs: List[float] = []
    msgs: List[float] = []
    lat_mean: List[float] = []
    for w in registry.windows:
        n_msgs = 0
        lat_total = 0
        lat_count = 0
        for iid, delta in w.data.items():
            if iid.startswith("messages_received_total{"):
                n_msgs += delta["inc"]
            elif iid.startswith("delivery_latency_ns{"):
                lat_total += delta["total_ns"]
                lat_count += delta["count"]
        xs.append(w.end_ns / 1e6)
        msgs.append(float(n_msgs))
        lat_mean.append(lat_total / lat_count / 1e6 if lat_count else 0.0)
    return xs, {"msgs/window": msgs, "mean latency (ms)": lat_mean}


def render_dashboard(registry: MetricsRegistry, width: int = 72, title: str = "repro top") -> str:
    """One full dashboard frame for a registry."""
    total_sent = sum(
        inst.value for kind, name, _l, inst in registry.instruments()
        if name == "messages_sent_total"
    )
    total_violations = sum(
        inst.value for kind, name, _l, inst in registry.instruments()
        if name == "contract_violations_total"
    )
    total_restarts = sum(
        inst.value for kind, name, _l, inst in registry.instruments()
        if name == "restarts_total"
    )
    header = (
        f"{title} | t={registry.last_ns / 1e6:.2f}ms sim | "
        f"window={registry.window_ns / 1e6:.0f}ms x{len(registry.windows)} | "
        f"msgs={total_sent} restarts={total_restarts} violations={total_violations}"
    )
    table = Table(
        ["component", "sent", "recv", "recv p99", "lat p50", "lat p99",
         "busy", "queue", "restarts", "viol"],
    )
    for row in _component_rows(registry):
        table.add_row(row)
    parts = [header, "", table.render()]
    xs, series = _window_series(registry)
    if len(xs) >= 2:
        parts += ["", render_xy(
            xs, series, width=width, height=10,
            x_label="sim time (ms)",
        )]
    return "\n".join(parts) + "\n"


def iter_frames(registry: MetricsRegistry, width: int = 72) -> Iterator[str]:
    """Cumulative per-window frames for ``repro top --watch``.

    Frame *k* shows the registry as of the end of window *k*: counters
    and histograms rebuilt from the delta series, gauges carried from
    the final state (they are point-in-time and not windowed).
    """
    partial = MetricsRegistry(window_ns=registry.window_ns)
    for kind, name, labels, inst in registry.instruments():
        if kind == "gauge":
            partial.gauge(name, **labels).merge(inst)
    for k, w in enumerate(registry.windows):
        for iid, delta in w.data.items():
            name, labels = _parse_id(iid)
            if delta["kind"] == "counter":
                partial.counter(name, **labels).inc(delta["inc"])
            else:
                hist = partial.histogram(name, **labels)
                hist.count += delta["count"]
                hist.total += delta["total_ns"]
                for b, c in delta["buckets"].items():
                    b = int(b)
                    hist.counts[b] += c
                    lo, hi = bucket_bounds(b)
                    if hist.min_value is None or lo < hist.min_value:
                        hist.min_value = lo
                    if hist.max_value is None or hi > hist.max_value:
                        hist.max_value = hi
        partial.windows.append(w)
        partial.last_ns = w.end_ns
        yield render_dashboard(
            partial, width=width,
            title=f"repro top [window {k + 1}/{len(registry.windows)}]",
        )


def _parse_id(iid: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`repro.metrics.telemetry.instrument_id`."""
    if "{" not in iid:
        return iid, {}
    name, _, rest = iid.partition("{")
    labels = {}
    for pair in rest.rstrip("}").split(","):
        k, _, v = pair.partition("=")
        labels[k] = v
    return name, labels
