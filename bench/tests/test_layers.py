import pytest

from bench import layers


@pytest.fixture
def clock(monkeypatch):
    """A fake span clock: tests advance it to stand for work done."""
    now = [0]
    monkeypatch.setattr(layers, "perf_counter_ns", lambda: now[0])
    return now


def test_self_time_subtracts_nested_spans(clock):
    spans = layers.Spans()

    def inner():
        clock[0] += 7

    timed_inner = spans.timed("inner", inner)

    def outer():
        clock[0] += 10
        timed_inner()
        clock[0] += 5
        timed_inner()

    spans.timed("outer", outer)()
    assert spans.self_ns == {"outer": 15, "inner": 14}
    assert spans.stack == []


def test_generator_steps_nest_and_throw_passes_through_wrapped_receive(clock):
    spans = layers.Spans()

    def receive():
        clock[0] += 3
        try:
            got = yield "wait"
        except KeyError:
            clock[0] += 4
            raise
        clock[0] += 2
        return got * 2

    timed_receive = spans.timed("context", receive)

    def traced_receive():
        clock[0] += 1
        try:
            return (yield from timed_receive())
        finally:
            clock[0] += 1

    timed_traced = spans.timed("trace", traced_receive)

    def behaviour():
        value = yield from timed_traced()
        clock[0] += 100  # behaviour code: in no span
        return value

    gen = behaviour()
    assert next(gen) == "wait"
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    assert stop.value.value == 42
    assert spans.self_ns == {"trace": 2, "context": 5}

    spans.reset()
    gen = behaviour()
    next(gen)
    with pytest.raises(KeyError):
        gen.throw(KeyError("deadline"))
    assert spans.self_ns == {"trace": 2, "context": 7}
    assert spans.stack == []


def test_close_reaches_the_wrapped_generator(clock):
    spans = layers.Spans()
    closed = []

    def receive():
        try:
            yield "wait"
        finally:
            closed.append(True)

    gen = spans.timed("context", receive)()
    next(gen)
    gen.close()
    assert closed == [True]


def test_install_splits_kernel_time_from_its_events_and_uninstalls():
    from repro.sim.kernel import Kernel

    originals = {name: Kernel.__dict__[name] for name in ("run", *layers.KERNEL_INSERTS)}
    spans = layers.Spans()
    fired = []
    uninstall = layers.install(spans)
    try:
        kernel = Kernel()
        kernel.schedule(5, fired.append, "late")
        kernel.call_soon(fired.append, "now")
        kernel.schedule_timer(9, fired.append, "never").cancel()
        kernel.run()
    finally:
        uninstall()
    assert fired == ["now", "late"]
    assert spans.counts["sim.kernel.events"] == 2
    assert spans.counts["sim.kernel.inserts"] == 3
    assert spans.counts["sim.kernel.timers"] == 1
    assert spans.counts["sim.kernel.cancels"] == 1
    assert spans.self_ns["sim.kernel"] > 0
    assert {name: Kernel.__dict__[name] for name in originals} == originals
