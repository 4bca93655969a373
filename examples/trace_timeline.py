#!/usr/bin/env python3
"""Event-trace support: the detailed view the paper's conclusion asks for.

Runs the MJPEG decoder with full event tracing enabled, writes the
trace in the columnar format ``repro trace`` writes, loads it back, and
reconstructs per-component duration summaries and
busy fractions -- turning "summarized information" into "a detailed view
of the application behavior" (paper section 6).

Run:  python examples/trace_timeline.py
"""

import tempfile
from pathlib import Path

from repro.metrics import Table
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly
from repro.runtime import SmpSimRuntime
from repro.trace import (
    TraceEvent,
    intervals,
    read_columns,
    summarize_durations,
    write_columns,
)
from repro.trace.analysis import busy_fraction
from repro.trace.tracer import enable_tracing

N_IMAGES = 20


def main() -> None:
    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=5)
    app = build_smp_assembly(stream, use_stored_coefficients=True)
    runtime = SmpSimRuntime()
    runtime.deploy(app)
    buffer = enable_tracing(runtime)
    runtime.start()
    runtime.wait()
    runtime.stop()

    print(f"captured {len(buffer)} events "
          f"({buffer.dropped} dropped) over "
          f"{runtime.makespan_ns / 1e6:.1f} virtual ms")

    # round-trip through the columnar writer
    path = Path(tempfile.gettempdir()) / "mjpeg_trace.columns.json"
    write_columns(buffer, path)
    cols = read_columns(path)
    events = [
        TraceEvent(*row)
        for row in zip(cols.timestamp_ns, cols.seq, cols.component, cols.category,
                       cols.name, cols.phase, cols.args)
    ]
    print(f"trace written to {path}")

    ivals = intervals(events)
    summary = summarize_durations(ivals)

    table = Table(
        ["Component", "Operation", "count", "mean (us)", "total (ms)"],
        title="Per-operation durations reconstructed from the event trace",
    )
    for (component, name), stats in sorted(summary.items()):
        table.add_row(
            [
                component,
                name,
                stats["count"],
                round(stats["mean_ns"] / 1e3, 2),
                round(stats["total_ns"] / 1e6, 2),
            ]
        )
    print()
    print(table.render())

    busy = Table(["Component", "busy fraction"],
                 title="Busy fraction over the run (union of traced intervals)")
    for name in ("Fetch", "IDCT_1", "IDCT_2", "IDCT_3", "Reorder"):
        busy.add_row([name, round(busy_fraction(ivals, name, runtime.makespan_ns), 3)])
    print()
    print(busy.render())

    # ASCII Gantt of the run, plus interoperable exports
    from repro.trace import render_gantt, write_chrome_trace, write_paje

    print()
    print(render_gantt(ivals, span_ns=runtime.makespan_ns, width=76,
                       components=["Fetch", "IDCT_1", "IDCT_2", "IDCT_3", "Reorder"]))
    chrome = Path(tempfile.gettempdir()) / "mjpeg_trace_chrome.json"
    paje = Path(tempfile.gettempdir()) / "mjpeg_trace.paje"
    write_chrome_trace(events, chrome)
    write_paje(events, paje)
    print(f"\nchrome://tracing export: {chrome}\nPaje export: {paje}")


if __name__ == "__main__":
    main()
