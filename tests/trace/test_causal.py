"""Causal span graph, latency attribution, queue depths, columnar buffer."""

import json

import pytest

from repro.core import Application, CONTROL
from repro.runtime import NativeRuntime, SmpSimRuntime
from repro.trace import (
    SpanGraph,
    TraceBuffer,
    Tracer,
    enable_tracing,
    queue_depth_series,
    read_columns,
    write_chrome_trace,
    write_columns,
)

N_ITEMS = 6


def make_chain_app(n_items=N_ITEMS):
    """prod -> relay -> sink, with the sink depositing tagged items:
    three-hop causal chains ending in a deposit."""

    def prod(ctx):
        for i in range(n_items):
            yield from ctx.compute("huffman_block", 5)
            yield from ctx.send("out", bytes(256), tag=f"m{i}")
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def relay(ctx):
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                yield from ctx.send("out", None, kind=CONTROL, tag="eos")
                return
            yield from ctx.compute("idct_block", 20)
            yield from ctx.send("out", msg.payload)

    def sink(ctx):
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return
            yield from ctx.deposit("display", msg.payload, tag="item")

    app = Application("chain")
    app.create("prod", behavior=prod, requires=["out"])
    app.create("relay", behavior=relay, provides=["in"], requires=["out"])
    app.create("sink", behavior=sink, provides=["in", "display"])
    app.connect("prod", "out", "relay", "in")
    app.connect("relay", "out", "sink", "in")
    return app


@pytest.fixture(scope="module")
def chain_trace():
    rt = SmpSimRuntime()
    rt.deploy(make_chain_app())
    buffer = enable_tracing(rt)
    rt.start()
    rt.wait()
    rt.stop()
    return buffer


def test_span_graph_structure(chain_trace):
    graph = SpanGraph.from_trace(chain_trace)
    sends = [e for e in graph.edges.values() if e.op == "send" and e.kind == "data"]
    deposits = [e for e in graph.edges.values() if e.op == "deposit"]
    # Every data message of the chain shows up exactly once, delivered.
    assert len(sends) == 2 * N_ITEMS
    assert len(deposits) == N_ITEMS
    assert all(e.recv_end_ns is not None for e in sends)
    assert all(e.receptions == 1 for e in sends)
    # Span ids are the dict keys, hence unique by construction; check
    # they are all positive and the cause links point at real receives.
    assert all(span > 0 for span in graph.edges)
    for dep in deposits:
        chain = graph.chain(dep.span)
        assert [e.src for e in chain] == ["prod", "relay", "sink"]
        assert chain[0].cause == 0  # root of the causal chain


def test_attribution_telescopes_to_e2e(chain_trace):
    graph = SpanGraph.from_trace(chain_trace)
    items = graph.attribute_items("item")
    assert len(items) == N_ITEMS
    for item in items:
        assert item.e2e_ns > 0
        # The acceptance criterion: hop segments sum exactly to the
        # measured end-to-end latency.
        assert item.attributed_ns == item.e2e_ns
        assert len(item.hops) == 3
    worst = graph.critical_path("item")
    assert worst.e2e_ns == max(it.e2e_ns for it in items)


def test_hop_segments_nonnegative(chain_trace):
    graph = SpanGraph.from_trace(chain_trace)
    for item in graph.attribute_items("item"):
        for hop in item.hops:
            assert hop.compute_ns >= 0
            assert hop.send_ns >= 0
            assert hop.queue_ns >= 0
            assert hop.recv_ns >= 0


def test_queue_depth_series(chain_trace):
    series = queue_depth_series(chain_trace)
    # Drained mailboxes return to zero; depth never goes negative.
    for mailbox in ("relay.in", "sink.in"):
        depths = [d for _, d in series[mailbox]]
        assert min(depths) >= 0
        assert depths[-1] == 0
    # The sink's display mailbox is never drained: monotone growth to
    # the item count -- the backpressure signal.
    display = [d for _, d in series["sink.display"]]
    assert display == list(range(1, N_ITEMS + 1))


def test_backpressure_report(chain_trace):
    from repro.metrics.analysis import backpressure_report

    report = backpressure_report(queue_depth_series(chain_trace))
    assert report["sink.display"]["final_depth"] == N_ITEMS
    assert report["sink.display"]["peak_depth"] == N_ITEMS
    assert report["relay.in"]["final_depth"] == 0
    assert 0 <= report["relay.in"]["mean_depth"] <= report["relay.in"]["peak_depth"]


def test_flow_events_link_every_send(chain_trace, tmp_path):
    path = tmp_path / "chain.chrome.json"
    write_chrome_trace(chain_trace.events(), path)
    records = json.loads(path.read_text())
    starts = {r["id"] for r in records if r.get("ph") == "s"}
    finishes = {r["id"] for r in records if r.get("ph") == "f"}
    graph = SpanGraph.from_trace(chain_trace)
    delivered = {
        e.span for e in graph.edges.values() if e.op == "send" and e.recv_end_ns is not None
    }
    # Every send opens a flow and every delivered span closes one.
    assert delivered <= starts
    assert delivered <= finishes
    assert finishes <= starts


def test_columnar_roundtrip(chain_trace, tmp_path):
    path = tmp_path / "chain.columns.json"
    n = write_columns(chain_trace, path)
    assert n == len(chain_trace)
    cols = read_columns(path)
    ref = chain_trace.columns()
    assert cols.timestamp_ns == ref.timestamp_ns
    assert cols.args == ref.args
    # The loaded columns feed the same analyses as the live buffer.
    graph = SpanGraph.from_trace(cols)
    assert len(graph.attribute_items("item")) == N_ITEMS


def test_columns_view_matches_events():
    buffer = TraceBuffer()
    tracer = Tracer(buffer, "c", lambda: 7)
    tracer.emit("compute", "op", "B", units=3)
    tracer.emit("compute", "op", "E")
    cols = buffer.columns()
    events = buffer.events()
    assert len(cols) == len(events) == 2
    assert cols.name == [e.name for e in events]
    assert cols.args[0] == {"units": 3}


def test_columns_cache_invalidated_by_emit():
    buffer = TraceBuffer()
    tracer = Tracer(buffer, "c", lambda: 0)
    tracer.emit("a", "x")
    assert len(buffer.columns()) == 1
    tracer.emit("a", "y")
    assert len(buffer.columns()) == 2
    assert buffer.columns().name == ["x", "y"]


def test_ring_overwrites_oldest():
    buffer = TraceBuffer(capacity=8)
    clock = iter(range(100))
    tracer = Tracer(buffer, "c", lambda: next(clock))
    for i in range(20):
        tracer.emit("a", f"e{i}")
    assert len(buffer) == 8
    assert buffer.dropped == 12
    names = buffer.columns().name
    assert names == [f"e{i}" for i in range(12, 20)]
    seqs = buffer.columns().seq
    assert seqs == list(range(13, 21))


def test_clear_resets_sequence():
    buffer = TraceBuffer(capacity=4)
    tracer = Tracer(buffer, "c", lambda: 0)
    for _ in range(9):
        tracer.emit("a", "x")
    buffer.clear()
    assert len(buffer) == 0
    assert buffer.dropped == 0
    assert len(buffer.columns()) == 0
    # A cleared buffer starts a fresh trace, so sequence numbers restart
    # from 1 instead of colliding with history.
    tracer.emit("a", "y")
    assert buffer.columns().seq == [1]


def test_native_runtime_spans_unique():
    from tests.runtime.conftest import make_pipeline_app

    rt = NativeRuntime()
    rt.deploy(make_pipeline_app(n_messages=20))
    buffer = enable_tracing(rt)
    rt.start()
    rt.wait()
    rt.stop()
    spans = [
        e.args["span"]
        for e in buffer.events()
        if e.category == "middleware" and e.name in ("send", "deposit")
        and e.phase == "E" and "span" in e.args
    ]
    assert spans
    assert len(spans) == len(set(spans))
    graph = SpanGraph.from_trace(buffer)
    data_sends = [e for e in graph.edges.values() if e.op == "send" and e.kind == "data"]
    assert len(data_sends) == 20
    assert all(e.recv_end_ns is not None for e in data_sends)
