"""Event-trace support: the paper's announced future work.

Section 6: "The current approach for observing is mainly based on
collecting summarized information about the execution.  However, this
information does not give a detailed view of the application behavior.
For this reason, we plan to implement an event-trace-support for
collecting detailed events."

This package implements that support: per-component
:class:`~repro.trace.tracer.Tracer` objects record timestamped
:class:`~repro.trace.events.TraceEvent` records into bounded ring
buffers; writers serialise them (JSONL or columnar JSON); and
:mod:`repro.trace.analysis` reconstructs per-component timelines,
matched begin/end intervals and summary statistics.
"""

from repro.trace.events import BEGIN, END, INSTANT, TraceEvent
from repro.trace.tracer import (
    TraceBuffer,
    TraceColumns,
    Tracer,
    TracingContext,
    collect_trace,
    enable_tracing,
)
from repro.trace.writer import read_columns, read_jsonl, write_columns, write_jsonl
from repro.trace.analysis import busy_fraction, intervals, summarize_durations
from repro.trace.causal import (
    HopLatency,
    ItemLatency,
    SpanEdge,
    SpanGraph,
    queue_depth_series,
)
from repro.trace.export import write_chrome_trace, write_paje
from repro.trace.gantt import render_gantt

__all__ = [
    "BEGIN",
    "END",
    "INSTANT",
    "HopLatency",
    "ItemLatency",
    "SpanEdge",
    "SpanGraph",
    "TraceBuffer",
    "TraceColumns",
    "TraceEvent",
    "Tracer",
    "TracingContext",
    "busy_fraction",
    "collect_trace",
    "enable_tracing",
    "intervals",
    "queue_depth_series",
    "read_columns",
    "read_jsonl",
    "render_gantt",
    "summarize_durations",
    "write_chrome_trace",
    "write_columns",
    "write_jsonl",
    "write_paje",
]
