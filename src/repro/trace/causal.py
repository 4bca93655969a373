"""Causal span-graph analysis over message-level traces.

Every ``send``/``deposit`` stamps a globally unique span id (plus the
sender's current *cause* -- the span whose reception triggered it) into
the message; the tracing context records both on its middleware END
events.  This module rebuilds the resulting edge stream into:

- a :class:`SpanGraph` -- one :class:`SpanEdge` per message, linked by
  cause, with explicit *dropped* / *duplicated* / *delayed* sets fed by
  the fault injector's span-stamped records (lost causality is explicit,
  never silent);
- per-item (e.g. per-frame) end-to-end **latency attribution**: each hop
  split into compute, middleware send, queue wait and middleware receive
  -- the four segments telescope exactly to the measured end-to-end
  latency;
- **critical-path extraction**: the chain of triggering messages behind
  the item's delivery.  At a fan-in (Reorder joining 18 batches) the
  cause link points at the batch whose arrival completed the frame, so
  the chain *is* the longest path through the join;
- **queue-depth time series** per mailbox: +1 at every send END into a
  mailbox, -1 at every receive END out of it -- the backpressure signal.

Everything consumes the columnar trace view (:meth:`TraceBuffer.columns`)
and never materialises per-event objects, so analysing million-event
traces stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.trace.events import BEGIN, END

#: Fault kinds whose span never reaches a receiver.
_LOSS_KINDS = ("drop", "overflow")


@dataclass
class SpanEdge:
    """One message: its causal identity plus send/receive timestamps."""

    span: int
    cause: int
    src: str                      # sender component
    iface: str                    # sender-side interface name
    mailbox: str                  # destination mailbox (qualified name)
    op: str = "send"              # "send" or "deposit"
    kind: str = "data"
    tag: str = ""
    size_bytes: int = 0
    send_begin_ns: int = 0
    send_end_ns: int = 0
    recv_component: str = field(default="", init=False)
    recv_begin_ns: Optional[int] = field(default=None, init=False)
    recv_end_ns: Optional[int] = field(default=None, init=False)
    receptions: int = field(default=0, init=False)  # >1 means a duplicated delivery


@dataclass
class HopLatency:
    """One hop of an item's causal chain, split into its four segments.

    ``compute_ns`` is the time the sender sat on the triggering message
    before emitting this one; ``queue_ns`` the time the message waited in
    the mailbox after the receiver was busy elsewhere; the two middleware
    segments are the send/receive primitive costs.  The segments of a
    chain telescope: their sum over all hops equals the measured
    end-to-end latency exactly.
    """

    edge: SpanEdge
    compute_ns: int = field(default=0, init=False)
    send_ns: int = field(default=0, init=False)
    queue_ns: int = field(default=0, init=False)
    recv_ns: int = field(default=0, init=False)

    @property
    def total_ns(self) -> int:
        return self.compute_ns + self.send_ns + self.queue_ns + self.recv_ns


@dataclass
class ItemLatency:
    """End-to-end attribution for one delivered item (e.g. one frame)."""

    item_span: int
    tag: str
    start_ns: int                 # root send BEGIN
    end_ns: int                   # final deposit/send END (delivery)
    hops: List[HopLatency] = field(default_factory=list, init=False)

    @property
    def e2e_ns(self) -> int:
        """Measured end-to-end latency (delivery minus chain start)."""
        return self.end_ns - self.start_ns

    @property
    def attributed_ns(self) -> int:
        """Sum of all hop segments; equals :attr:`e2e_ns` on a complete
        chain (the telescoping property the tests assert)."""
        return sum(h.total_ns for h in self.hops)

    def breakdown(self) -> Dict[str, int]:
        """Per-segment totals across the whole chain."""
        return {
            "compute_ns": sum(h.compute_ns for h in self.hops),
            "send_ns": sum(h.send_ns for h in self.hops),
            "queue_ns": sum(h.queue_ns for h in self.hops),
            "recv_ns": sum(h.recv_ns for h in self.hops),
        }


def _columns_of(trace):
    """Accept a TraceBuffer, TraceColumns or an iterable of TraceEvent."""
    columns = getattr(trace, "columns", None)
    if callable(columns):
        return columns()
    if hasattr(trace, "timestamp_ns"):  # already a TraceColumns
        return trace
    events = sorted(trace)
    from repro.trace.tracer import TraceColumns

    return TraceColumns(
        [e.timestamp_ns for e in events],
        [e.seq for e in events],
        [e.component for e in events],
        [e.category for e in events],
        [e.name for e in events],
        [e.phase for e in events],
        [e.args for e in events],
    )


class SpanGraph:
    """The causal message graph reconstructed from one trace."""

    def __init__(self) -> None:
        self.edges: Dict[int, SpanEdge] = {}
        #: cause span -> spans it triggered.
        self.children: Dict[int, List[int]] = {}
        #: span -> fault kind, for spans the injector dropped in transport.
        self.dropped: Dict[int, str] = {}
        #: spans the injector delivered twice.
        self.duplicated: set = set()
        #: spans the injector held back before delivery.
        self.delayed: set = set()
        #: spans consumed by a component that then crashed on them.
        self.crashed: set = set()
        #: replica span -> original span, for messages the recovery
        #: manager retransmitted (each replica's receive edge carries the
        #: original send's span as its cause -- the causal replay link).
        self.replayed: Dict[int, int] = {}
        #: spans discarded by delivery-sequence dedup (injected
        #: duplicates and post-restart re-sends).
        self.deduped: set = set()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_trace(cls, trace) -> "SpanGraph":
        """Build the graph from a TraceBuffer / columns / event iterable."""
        cols = _columns_of(trace)
        graph = cls()
        edges = graph.edges
        begins: Dict[Tuple[str, str, str], List[dict]] = {}
        n = len(cols.timestamp_ns)
        ts_col, comp_col = cols.timestamp_ns, cols.component
        cat_col, name_col, ph_col, args_col = cols.category, cols.name, cols.phase, cols.args
        for i in range(n):
            cat = cat_col[i]
            if cat == "middleware":
                name = name_col[i]
                if name not in ("send", "receive", "deposit"):
                    continue
                args = args_col[i]
                key = (comp_col[i], name, args.get("iface", ""))
                if ph_col[i] == BEGIN:
                    begins.setdefault(key, []).append(
                        {"ts": ts_col[i], "tag": args.get("tag", "")}
                    )
                    continue
                if ph_col[i] != END:
                    continue
                span = args.get("span")
                stack = begins.get(key)
                begin = stack.pop() if stack else {"ts": ts_col[i], "tag": ""}
                if span is None:
                    continue  # untraced delegate (e.g. deadline-expired receive)
                if name == "receive":
                    edge = edges.get(span)
                    if edge is None:
                        # Reception of a span whose send predates the trace
                        # (ring truncation): keep a partial edge.
                        edge = edges[span] = SpanEdge(
                            span=span, cause=args.get("cause", 0),
                            src=args.get("src", ""), iface=key[2],
                            mailbox=args.get("mbox", ""),
                        )
                        graph.children.setdefault(edge.cause, []).append(span)
                    edge.receptions += 1
                    if edge.recv_end_ns is None:
                        edge.recv_component = comp_col[i]
                        edge.recv_begin_ns = begin["ts"]
                        edge.recv_end_ns = ts_col[i]
                else:  # send / deposit
                    edge = SpanEdge(
                        span=span,
                        cause=args.get("cause", 0),
                        src=comp_col[i],
                        iface=key[2],
                        mailbox=args.get("dst", ""),
                        op=name,
                        kind=args.get("kind", "data"),
                        tag=begin["tag"] or args.get("tag", ""),
                        size_bytes=args.get("size", 0),
                        send_begin_ns=begin["ts"],
                        send_end_ns=ts_col[i],
                    )
                    prior = edges.get(span)
                    if prior is not None and prior.receptions:
                        # receive seen before its send (interleaved threads)
                        edge.receptions = prior.receptions
                        edge.recv_component = prior.recv_component
                        edge.recv_begin_ns = prior.recv_begin_ns
                        edge.recv_end_ns = prior.recv_end_ns
                    edges[span] = edge
                    graph.children.setdefault(edge.cause, []).append(span)
            elif cat == "fault":
                span = args_col[i].get("span")
                if not span:
                    continue
                name = name_col[i]
                if name in _LOSS_KINDS:
                    graph.dropped[span] = name
                elif name == "duplicate":
                    graph.duplicated.add(span)
                elif name == "delay":
                    graph.delayed.add(span)
                elif name == "crash":
                    graph.crashed.add(span)
            elif cat == "recovery":
                args = args_col[i]
                name = name_col[i]
                if name == "replay":
                    span, orig = args.get("span"), args.get("orig")
                    if span and orig:
                        graph.replayed[span] = orig
                elif name == "dedup":
                    span = args.get("span")
                    if span:
                        graph.deduped.add(span)
        return graph

    # -- queries ------------------------------------------------------------

    def chain(self, span: int) -> List[SpanEdge]:
        """The causal chain ending at ``span``, root first.

        Follows cause links while the previous message was received by
        the next sender (a contiguous chain); stops at a root (cause 0)
        or at a span missing from the trace.
        """
        out: List[SpanEdge] = []
        seen = set()
        edge = self.edges.get(span)
        while edge is not None and edge.span not in seen:
            seen.add(edge.span)
            out.append(edge)
            prev = self.edges.get(edge.cause)
            if prev is None or prev.recv_component != edge.src:
                break
            edge = prev
        out.reverse()
        return out

    def items(self, tag: str = "frame") -> List[int]:
        """Spans of delivered items: deposit edges carrying ``tag``,
        in delivery order."""
        spans = [
            e.span for e in self.edges.values() if e.op == "deposit" and e.tag == tag
        ]
        spans.sort(key=lambda s: self.edges[s].send_end_ns)
        return spans

    def attribute(self, item_span: int) -> ItemLatency:
        """End-to-end latency attribution for one delivered item.

        Walks the item's causal chain and splits every hop into compute /
        middleware-send / queue-wait / middleware-receive.  The segments
        telescope: ``attributed_ns == e2e_ns`` on a contiguous chain.
        """
        chain = self.chain(item_span)
        if not chain:
            raise KeyError(f"span {item_span} not in graph")
        item = ItemLatency(
            item_span=item_span,
            tag=chain[-1].tag,
            start_ns=chain[0].send_begin_ns,
            end_ns=chain[-1].send_end_ns,
        )
        prev: Optional[SpanEdge] = None
        for edge in chain:
            hop = HopLatency(edge=edge)
            if prev is not None and prev.recv_end_ns is not None:
                hop.compute_ns = max(0, edge.send_begin_ns - prev.recv_end_ns)
            hop.send_ns = edge.send_end_ns - edge.send_begin_ns
            if edge.recv_end_ns is not None:
                hop.queue_ns = max(0, edge.recv_begin_ns - edge.send_end_ns)
                hop.recv_ns = edge.recv_end_ns - max(edge.recv_begin_ns, edge.send_end_ns)
            item.hops.append(hop)
            prev = edge
        return item

    def attribute_items(self, tag: str = "frame") -> List[ItemLatency]:
        """Latency attribution for every delivered item carrying ``tag``."""
        return [self.attribute(span) for span in self.items(tag)]

    def critical_path(self, tag: str = "frame") -> Optional[ItemLatency]:
        """The slowest delivered item's full attribution -- the critical
        path of the run."""
        items = self.attribute_items(tag)
        if not items:
            return None
        return max(items, key=lambda it: it.e2e_ns)


def queue_depth_series(trace) -> Dict[str, List[Tuple[int, int]]]:
    """Per-mailbox queue-depth time series from the edge stream.

    Depth rises at every send/deposit END into the mailbox and falls at
    every receive END out of it: ``{mailbox: [(t_ns, depth), ...]}`` in
    chronological order.  A mailbox nobody drains (e.g. the display sink)
    shows monotone growth -- that *is* the backpressure signal.
    """
    cols = _columns_of(trace)
    out: Dict[str, List[Tuple[int, int]]] = {}
    depth: Dict[str, int] = {}
    n = len(cols.timestamp_ns)
    for i in range(n):
        if cols.category[i] != "middleware" or cols.phase[i] != END:
            continue
        args = cols.args[i]
        name = cols.name[i]
        if name in ("send", "deposit"):
            mailbox = args.get("dst", "")
            delta = 1
        elif name == "receive":
            mailbox = args.get("mbox", "")
            delta = -1
        else:
            continue
        if not mailbox or "span" not in args:
            continue
        d = depth.get(mailbox, 0) + delta
        depth[mailbox] = d
        out.setdefault(mailbox, []).append((cols.timestamp_ns[i], d))
    return out
