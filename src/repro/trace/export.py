"""Interoperable trace exports: Pajé and Chrome trace-event format.

- **Pajé** is the self-defined trace format of the Grenoble/MESCAL
  tradition the paper comes from; the export here emits the standard
  event-definition header plus PajeSetState state changes, loadable by
  Pajé/ViTE-class viewers.
- **Chrome trace-event JSON** loads into ``chrome://tracing`` / Perfetto:
  each component becomes a thread, BEGIN/END become ``B``/``E`` events.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.trace.events import BEGIN, END, TraceEvent

PathLike = Union[str, Path]

_PAJE_HEADER = """\
%EventDef PajeDefineContainerType 1
%  Alias string
%  ContainerType string
%  Name string
%EndEventDef
%EventDef PajeDefineStateType 2
%  Alias string
%  ContainerType string
%  Name string
%EndEventDef
%EventDef PajeCreateContainer 3
%  Time date
%  Alias string
%  Type string
%  Container string
%  Name string
%EndEventDef
%EventDef PajeSetState 4
%  Time date
%  Container string
%  Type string
%  Value string
%EndEventDef
"""


def write_paje(events: Iterable[TraceEvent], path: PathLike) -> int:
    """Export BEGIN/END pairs as Pajé state changes.

    Containers are components; the state value is the operation name
    while inside an interval and ``idle`` outside.  Returns the number
    of PajeSetState records written.
    """
    events = sorted(events)
    components: List[str] = []
    for e in events:
        if e.component not in components:
            components.append(e.component)

    lines = [_PAJE_HEADER]
    lines.append('1 CT_Comp "0" "Component"')
    lines.append('2 ST_Op CT_Comp "Operation"')
    for comp in components:
        lines.append(f'3 0.000000 C_{comp} CT_Comp 0 "{comp}"')

    n = 0
    depth = {c: 0 for c in components}
    for e in events:
        t = e.timestamp_ns / 1e9
        if e.phase == BEGIN:
            depth[e.component] += 1
            lines.append(f'4 {t:.9f} C_{e.component} ST_Op "{e.name}"')
            n += 1
        elif e.phase == END:
            depth[e.component] = max(0, depth[e.component] - 1)
            if depth[e.component] == 0:
                lines.append(f'4 {t:.9f} C_{e.component} ST_Op "idle"')
                n += 1
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return n


def write_chrome_trace(events: Iterable[TraceEvent], path: PathLike) -> int:
    """Export to the Chrome trace-event JSON array format.

    Load the result in ``chrome://tracing`` or https://ui.perfetto.dev.
    Span-stamped middleware events additionally emit **flow events**
    (``ph: s``/``f``), so every send draws a causal arrow to its receive
    across component tracks.  Returns the number of records written.
    """
    records = []
    tids = {}
    for e in sorted(events):
        tid = tids.setdefault(e.component, len(tids) + 1)
        if e.phase == BEGIN:
            ph = "B"
        elif e.phase == END:
            ph = "E"
        else:
            ph = "i"
        record = {
            "name": e.name,
            "cat": e.category,
            "ph": ph,
            "ts": e.timestamp_ns / 1_000,  # microseconds
            "pid": 1,
            "tid": tid,
        }
        if e.args and ph != "E":
            record["args"] = e.args
        if ph == "i":
            record["s"] = "t"
        records.append(record)
        if ph == "E" and e.category == "middleware" and "span" in e.args:
            span = e.args["span"]
            flow = {
                "name": "msg",
                "cat": "causal",
                "ts": record["ts"],
                "pid": 1,
                "tid": tid,
                "id": span,
            }
            if e.name in ("send", "deposit"):
                flow["ph"] = "s"
                records.append(flow)
            elif e.name == "receive":
                # Bind to the enclosing slice's end so the arrow lands on
                # the receive interval itself.
                flow["ph"] = "f"
                flow["bp"] = "e"
                records.append(flow)
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": comp},
        }
        for comp, tid in tids.items()
    ]
    Path(path).write_text(json.dumps(meta + records), encoding="utf-8")
    return len(records)
