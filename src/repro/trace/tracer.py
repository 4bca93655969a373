"""Tracers, the columnar ring buffer and the tracing context wrapper.

The buffer is a two-layer store:

- **Write path** (hot): :meth:`Tracer.emit` appends one plain row tuple
  ``(ts, seq, component, category, name, phase, args)`` into a bounded
  ring of rows -- one allocation, one list operation, no dataclass, no
  validation.
- **Read path** (columnar): :meth:`TraceBuffer.columns` transposes the
  rows once into cached parallel arrays (a :class:`TraceColumns`), which
  is what the causal analysis and the exporters consume -- big traces
  stay flat, with zero per-event object builds.  :meth:`events` remains
  as the compatibility view materialising :class:`TraceEvent` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from repro.trace.events import _PHASES, BEGIN, END, INSTANT, TraceEvent

#: Row layout (index -> field) of the buffer's raw storage.
ROW_FIELDS = ("timestamp_ns", "seq", "component", "category", "name", "phase", "args")


@dataclass
class TraceColumns:
    """Parallel-array (struct-of-arrays) view over one trace.

    Every attribute is a list with one entry per event, all the same
    length and in global (timestamp, seq) order.  Built once per buffer
    generation and cached; treat as read-only.
    """

    timestamp_ns: List[int]
    seq: List[int]
    component: List[str]
    category: List[str]
    name: List[str]
    phase: List[str]
    args: List[Dict[str, Any]]

    def __len__(self) -> int:
        return len(self.timestamp_ns)

    def validate(self) -> None:
        """Raise the ``ValueError`` a :class:`TraceEvent` would for an
        unknown phase or a negative timestamp, without building events:
        a set check over ``phase`` and a ``min`` over ``timestamp_ns``."""
        if not set(self.phase) <= set(_PHASES):
            phase = next(p for p in self.phase if p not in _PHASES)
            raise ValueError(f"unknown phase {phase!r}; expected one of {_PHASES}")
        earliest = min(self.timestamp_ns, default=0)
        if earliest < 0:
            raise ValueError(f"negative timestamp {earliest}")


class TraceBuffer:
    """A bounded ring buffer of events shared by several tracers.

    Embedded targets cannot keep unbounded traces; when full, the oldest
    events are dropped and counted, so analyses can report truncation
    instead of silently lying.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rows: List[tuple] = []
        self._head = 0  # index of the oldest row once the ring has wrapped
        self.dropped = 0
        self._seq = 0
        self._columns: Optional[TraceColumns] = None

    def rows(self) -> List[tuple]:
        """All buffered raw rows, oldest first (see :data:`ROW_FIELDS`).

        Sim traces come out pre-sorted (virtual time is monotone); native
        multi-thread traces are sorted defensively by (timestamp, seq).
        """
        rows = self._rows
        head = self._head
        if head:
            rows = rows[head:] + rows[:head]
        for i in range(1, len(rows)):
            if rows[i - 1][:2] > rows[i][:2]:
                rows = sorted(rows, key=lambda r: (r[0], r[1]))
                break
        return rows

    def columns(self) -> TraceColumns:
        """The columnar (parallel arrays) view; cached until the next
        write.  One C-level transpose, no per-event objects."""
        if self._columns is None:
            rows = self.rows()
            if rows:
                ts, seq, comp, cat, name, phase, args = map(list, zip(*rows))
            else:
                ts, seq, comp, cat, name, phase, args = [], [], [], [], [], [], []
            self._columns = TraceColumns(ts, seq, comp, cat, name, phase, args)
        return self._columns

    def events(self) -> List[TraceEvent]:
        """All buffered events (oldest first) as validated
        :class:`TraceEvent` records -- the compatibility view."""
        return [TraceEvent(*row) for row in self.rows()]

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        """Drop all events, reset the dropped counter *and* the sequence
        counter -- a cleared buffer starts a fresh trace, numbered from
        1 like a new buffer."""
        self._rows.clear()
        self._head = 0
        self.dropped = 0
        self._seq = 0
        self._columns = None


class Tracer:
    """Per-component event emitter."""

    __slots__ = ("buffer", "component", "clock")

    def __init__(self, buffer: TraceBuffer, component: str, clock) -> None:
        self.buffer = buffer
        self.component = component
        self.clock = clock  # zero-arg callable -> ns

    def emit(
        self,
        category: str,
        name: str,
        phase: str = INSTANT,
        **args: Any,
    ) -> None:
        """Record one event stamped with the clock and sequence.

        Allocation-light: the event is buffered as a plain row tuple --
        no dataclass construction, no validation -- and becomes columnar
        or :class:`TraceEvent` form only when the buffer is read back.
        On a simulated run with tracing enabled this is the single
        hottest observation call."""
        buffer = self.buffer
        buffer._seq += 1
        buffer._columns = None
        row = (self.clock(), buffer._seq, self.component, category, name, phase, args)
        rows = buffer._rows
        if len(rows) < buffer.capacity:
            rows.append(row)
        else:
            head = buffer._head
            rows[head] = row
            buffer._head = (head + 1) % buffer.capacity
            buffer.dropped += 1


class TracingContext:
    """Wraps a runtime context, tracing sends/receives/computes.

    Installed by :func:`enable_tracing` between ``deploy`` and ``start``;
    behaviour code is -- as always -- untouched.  END events of the
    middleware operations carry the causal identity of the message
    (``span``/``cause``), its destination mailbox and size, which is what
    :mod:`repro.trace.causal` reconstructs chains and queue depths from.
    """

    def __init__(self, delegate, tracer: Tracer) -> None:
        self._delegate = delegate
        self._tracer = tracer

    # Everything not traced is forwarded untouched.
    def __getattr__(self, item):
        return getattr(self._delegate, item)

    def _dst_of(self, required_name: str) -> str:
        req = self._delegate.component.get_required(required_name)
        return req.target.qualified_name if req.target is not None else ""

    def send(self, required_name: str, payload, kind: str = "data", tag: str = "", size_bytes: int = -1) -> Generator:
        """Traced send: BEGIN/END events around the delegate call."""
        delegate = self._delegate
        self._tracer.emit("middleware", "send", BEGIN, iface=required_name, kind=kind, tag=tag)
        before = delegate.last_message
        try:
            yield from delegate.send(required_name, payload, kind=kind, tag=tag, size_bytes=size_bytes)
        finally:
            m = delegate.last_message
            if m is not None and m is not before:
                self._tracer.emit(
                    "middleware", "send", END, iface=required_name,
                    span=m.span, cause=m.cause, dst=self._dst_of(required_name),
                    size=m.size_bytes, kind=m.kind,
                )
            else:
                self._tracer.emit("middleware", "send", END, iface=required_name)

    def receive(self, provided_name: str, timeout_ns: Optional[int] = None) -> Generator:
        """Traced receive: BEGIN/END events around the delegate call."""
        delegate = self._delegate
        self._tracer.emit("middleware", "receive", BEGIN, iface=provided_name)
        message = None
        try:
            message = yield from delegate.receive(provided_name, timeout_ns=timeout_ns)
        finally:
            if message is not None:
                self._tracer.emit(
                    "middleware", "receive", END, iface=provided_name,
                    span=message.span, cause=message.cause, src=message.src,
                    mbox=f"{delegate.component.name}.{provided_name}", kind=message.kind,
                )
            else:
                self._tracer.emit("middleware", "receive", END, iface=provided_name)
        return message

    def deposit(self, provided_name: str, payload, kind: str = "data", tag: str = "") -> Generator:
        """Traced deposit: BEGIN/END events around the delegate call."""
        delegate = self._delegate
        self._tracer.emit("middleware", "deposit", BEGIN, iface=provided_name, kind=kind, tag=tag)
        before = delegate.last_message
        try:
            yield from delegate.deposit(provided_name, payload, kind=kind, tag=tag)
        finally:
            m = delegate.last_message
            if m is not None and m is not before:
                self._tracer.emit(
                    "middleware", "deposit", END, iface=provided_name,
                    span=m.span, cause=m.cause,
                    dst=f"{delegate.component.name}.{provided_name}",
                    size=m.size_bytes, tag=tag,
                )
            else:
                self._tracer.emit("middleware", "deposit", END, iface=provided_name)

    def try_receive(self, provided_name: str):
        """Traced non-blocking receive.  A *successful* poll emits the
        same BEGIN/END pair (zero duration, ``poll=True``) as a blocking
        receive, so polling consumers still produce the -1 edge the
        queue-depth series needs.  Empty polls move no message and stay
        untraced -- a polling loop must not flood the ring buffer."""
        delegate = self._delegate
        message = delegate.try_receive(provided_name)
        if message is not None:
            self._tracer.emit("middleware", "receive", BEGIN, iface=provided_name, poll=True)
            self._tracer.emit(
                "middleware", "receive", END, iface=provided_name,
                span=message.span, cause=message.cause, src=message.src,
                mbox=f"{delegate.component.name}.{provided_name}", kind=message.kind,
                poll=True,
            )
        return message

    def compute(self, opclass: str, units: float) -> Generator:
        """Declare computational work (see ComponentContext.compute)."""
        self._tracer.emit("compute", opclass, BEGIN, units=units)
        try:
            yield from self._delegate.compute(opclass, units)
        finally:
            self._tracer.emit("compute", opclass, END)


def enable_tracing(runtime, buffer: Optional[TraceBuffer] = None) -> TraceBuffer:
    """Install tracing contexts on every deployed component.

    Call after ``runtime.deploy(app)`` and before ``runtime.start()``.
    Every component traces into one buffer -- ``buffer``, or a fresh
    one -- at any shard count.  Returns the buffer; :func:`collect_trace`
    returns it after ``wait()``.
    """
    if buffer is None:
        buffer = TraceBuffer()
    for cont in runtime.containers.values():
        if cont.context is None:
            raise RuntimeError("enable_tracing requires a deployed application")
        tracer = Tracer(buffer, cont.component.name, cont.context.now_ns)
        cont.context = TracingContext(cont.context, tracer)
        cont.extra["tracer"] = tracer
    runtime.trace = buffer
    return buffer


def collect_trace(runtime) -> TraceBuffer:
    """A runtime's trace buffer after ``wait()``."""
    trace = getattr(runtime, "trace", None)
    if trace is None:
        raise ValueError("enable_tracing() was not called on this runtime")
    return trace
