"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Event, Kernel, Timeout, WaitEvent
from repro.sim.errors import SimulationError

from reference_process import Process


def run_proc(body, **kw):
    k = Kernel()
    p = Process(k, body(k) if callable(body) else body, **kw)
    k.run()
    return k, p


def test_process_advances_time_with_timeout():
    def body(k):
        yield Timeout(100)
        yield Timeout(50)

    k, p = run_proc(body)
    assert k.now == 150
    assert not p.alive


def test_process_result_is_return_value():
    def body(k):
        yield Timeout(1)
        return "answer"

    _, p = run_proc(body)
    assert p.done.triggered
    assert p.result == "answer"


def test_wait_event_receives_trigger_value():
    k = Kernel()
    ev = Event(k)
    got = []

    def waiter():
        value = yield WaitEvent(ev)
        got.append(value)

    Process(k, waiter())
    k.schedule(500, ev.trigger, "payload")
    k.run()
    assert got == ["payload"]
    assert k.now == 500


def test_wait_on_already_triggered_event_resumes_immediately():
    k = Kernel()
    ev = Event(k)
    ev.trigger(7)
    got = []

    def waiter():
        got.append((yield WaitEvent(ev)))

    Process(k, waiter())
    k.run()
    assert got == [7]
    assert k.now == 0


def test_multiple_waiters_resume_in_wait_order():
    k = Kernel()
    ev = Event(k)
    order = []

    def waiter(tag):
        yield WaitEvent(ev)
        order.append(tag)

    for tag in "abc":
        Process(k, waiter(tag))
    k.schedule(10, ev.trigger)
    k.run()
    assert order == ["a", "b", "c"]


def test_yield_from_composes_subbehaviours():
    def sub():
        yield Timeout(10)
        return 5

    def body(k):
        x = yield from sub()
        yield Timeout(x)
        return x * 2

    k, p = run_proc(body)
    assert k.now == 15
    assert p.result == 10


def test_exception_in_process_propagates_from_run():
    def body(k):
        yield Timeout(1)
        raise ValueError("boom")

    k = Kernel()
    Process(k, body(k))
    with pytest.raises(ValueError, match="boom"):
        k.run()


def test_on_error_handler_captures_exception():
    captured = []

    def body(k):
        yield Timeout(1)
        raise ValueError("boom")

    k = Kernel()
    Process(k, body(k), on_error=lambda p, e: captured.append(str(e)))
    k.run()
    assert captured == ["boom"]


def test_kill_terminates_process():
    progressed = []

    def body():
        yield Timeout(100)
        progressed.append("should not happen")

    k = Kernel()
    p = Process(k, body())
    k.schedule(10, p.kill)
    k.run()
    assert progressed == []
    assert not p.alive
    assert p.done.triggered


def test_yielding_garbage_is_an_error():
    def body(k):
        yield 42  # not a Command

    k = Kernel()
    Process(k, body(k))
    with pytest.raises(SimulationError, match="non-command"):
        k.run()


def test_non_generator_body_rejected():
    k = Kernel()
    with pytest.raises(SimulationError):
        Process(k, lambda: None)


def test_start_delay():
    ts = []

    def body(k):
        ts.append(k.now)
        yield Timeout(0)

    k = Kernel()
    Process(k, body(k), start_delay_ns=25)
    k.run()
    assert ts == [25]


def test_processes_interleave_deterministically():
    log = []

    def body(k, tag, step):
        for _ in range(3):
            yield Timeout(step)
            log.append((k.now, tag))

    k = Kernel()
    Process(k, body(k, "a", 10))
    Process(k, body(k, "b", 15))
    k.run()
    # At t=30 both resume; b's wakeup was scheduled first (at t=15 vs t=20),
    # so FIFO tie-breaking puts b ahead of a.
    assert log == [(10, "a"), (15, "b"), (20, "a"), (30, "b"), (30, "a"), (45, "b")]
