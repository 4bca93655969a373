"""Trace serialisation: the columnar JSON format."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

PathLike = Union[str, Path]


def write_columns(trace, path: PathLike) -> int:
    """Serialise a trace in columnar (struct-of-arrays) JSON.

    ``trace`` is a :class:`~repro.trace.tracer.TraceBuffer` or a
    :class:`~repro.trace.tracer.TraceColumns`.  The on-disk layout keeps
    one JSON array per column, which both compresses and parses far
    better than one object per event for large traces, and loads
    straight back into the parallel-array form the analyses consume.  Returns the
    event count.
    """
    dropped = getattr(trace, "dropped", 0)
    if hasattr(trace, "columns"):
        trace = trace.columns()
    doc = {
        "format": "repro-trace-columns",
        "version": 1,
        "dropped": dropped,
        "columns": {
            "timestamp_ns": trace.timestamp_ns,
            "seq": trace.seq,
            "component": trace.component,
            "category": trace.category,
            "name": trace.name,
            "phase": trace.phase,
            "args": trace.args,
        },
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return len(trace)


def read_columns(path: PathLike):
    """Load a columnar trace written by :func:`write_columns` back into a
    :class:`~repro.trace.tracer.TraceColumns`."""
    from repro.trace.tracer import TraceColumns

    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != "repro-trace-columns":
        raise ValueError(f"{path}: not a columnar trace file")
    cols = doc["columns"]
    return TraceColumns(
        cols["timestamp_ns"],
        cols["seq"],
        cols["component"],
        cols["category"],
        cols["name"],
        cols["phase"],
        cols["args"],
    )

