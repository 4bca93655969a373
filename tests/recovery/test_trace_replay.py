"""Causal tracing of recovery: replay links and span conservation.

Extends the span-conservation property to replayed messages: a replica
drawn from the retransmit buffer carries a *fresh* span whose cause is
the original send's span, so the trace still accounts for every message
-- nothing vanishes silently, even across crashes and heals.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, RestartPolicy, Supervisor
from repro.recovery import RecoveryManager
from repro.runtime import SmpSimRuntime
from repro.trace import SpanGraph, enable_tracing, queue_depth_series

from tests.recovery.conftest import make_recoverable_pipeline

N = 24


def _run(seed):
    plan = (
        FaultPlan(seed=seed)
        .drop("prod", "out", probability=0.25)
        .duplicate("prod", "out", probability=0.25)
        .crash("cons", on_receive=10)
    )
    app, sink = make_recoverable_pipeline(N)
    rt = SmpSimRuntime()
    rt.deploy(app)
    buffer = enable_tracing(rt)
    FaultInjector(plan).install(rt)
    recovery = RecoveryManager(checkpoint_interval=4).install(rt)
    Supervisor(policy=RestartPolicy()).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    return buffer, recovery, sink


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_replays_are_causally_linked_to_the_original_send(seed):
    buffer, recovery, sink = _run(seed)
    assert sink.received == list(range(N))
    graph = SpanGraph.from_trace(buffer)
    assert len(graph.replayed) == recovery.replayed
    assert len(graph.deduped) == recovery.deduped
    for replica, orig in graph.replayed.items():
        # The replica has its own edge whose cause is the original span.
        assert replica in graph.edges
        assert graph.edges[replica].cause == orig
        assert orig in graph.edges  # the original send was traced too


@pytest.mark.parametrize("seed", [0, 7])
def test_span_conservation_extends_to_replayed_messages(seed):
    buffer, recovery, sink = _run(seed)
    graph = SpanGraph.from_trace(buffer)
    healed_origs = set(graph.replayed.values())
    data_sends = [
        e
        for e in graph.edges.values()
        # Replica receives create partial edges too; the replayed map
        # keys are exactly those spans, so exclude them to keep genuine
        # producer sends.
        if e.op == "send" and e.kind == "data" and e.src == "prod"
        and e.span not in graph.replayed
    ]
    assert len(data_sends) == N  # the producer never restarts in this plan
    for edge in data_sends:
        accounted = (
            edge.receptions >= 1  # delivered
            or edge.span in graph.deduped  # discarded as a duplicate
            or edge.span in healed_origs  # lost, but a replica carried it
        )
        assert accounted, f"span {edge.span} vanished silently"
    # Every replica either reached the behaviour or was itself deduped
    # (e.g. a heal racing a post-restart replay of the same sequence).
    for replica in graph.replayed:
        edge = graph.edges[replica]
        assert edge.receptions >= 1 or replica in graph.deduped


def test_traced_try_receive_keeps_queue_depth_balanced():
    """Satellite: polling consumers emit receive events on successful
    polls, so the mailbox depth series returns to zero instead of
    drifting up by one per polled message."""
    from repro.core import Application, CONTROL

    app = Application("poll")

    def producer(ctx):
        for i in range(5):
            yield from ctx.send("out", bytes(64))
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def poller(ctx):
        got = 0
        while got < 6:
            msg = ctx.try_receive("in")
            if msg is None:
                yield from ctx.compute("ns", 1_000)
                continue
            got += 1
        return got

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=poller, provides=["in"])
    app.connect("prod", "out", "cons", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    buffer = enable_tracing(rt)
    rt.start()
    rt.wait()
    rt.stop()

    polls = [
        e
        for e in buffer.events()
        if e.category == "middleware" and e.name == "receive" and e.args.get("poll")
    ]
    # 6 successful polls, each a BEGIN/END pair; empty polls untraced.
    assert len(polls) == 12
    assert sum(1 for e in polls if e.phase == "E") == 6
    series = queue_depth_series(buffer)
    depths = dict(series)["cons.in"]
    assert depths[-1][1] == 0  # drained mailbox reads as drained
    assert max(d for _, d in depths) >= 1
