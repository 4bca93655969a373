"""``Kernel.advance_to``: the clock moves only when a timer for the target
instant would be the very next entry ``run`` pops; and ``run`` refuses
an ``until`` in the past."""

import pytest

from repro.sim import Kernel
from repro.sim.errors import SchedulingError


def probe(kernel, at, target, out):
    """At ``at``, try ``advance_to(target)`` and record (result, now)."""

    def fire():
        ok = kernel.advance_to(target)
        out.append((ok, kernel.now))

    kernel.schedule_at(at, fire)


def test_advances_when_nothing_else_is_due():
    k = Kernel()
    out = []
    probe(k, 10, 40, out)
    k.schedule_at(41, lambda: out.append(("later", k.now)))
    k.run()
    assert out == [(True, 40), ("later", 41)]


def test_refuses_with_a_pending_call_soon():
    k = Kernel()
    out = []

    def fire():
        k.call_soon(lambda: out.append(("soon", k.now)))
        out.append((k.advance_to(20), k.now))

    k.schedule_at(10, fire)
    k.run()
    assert out == [(False, 10), ("soon", 10)]


def test_refuses_on_a_heap_entry_at_exactly_the_target():
    k = Kernel()
    out = []
    probe(k, 10, 30, out)
    k.schedule_at(30, lambda: None)
    k.run()
    assert out == [(False, 10)]


def test_accepts_just_before_a_heap_entry():
    k = Kernel()
    out = []
    probe(k, 10, 29, out)
    k.schedule_at(30, lambda: out.append(("next", k.now)))
    k.run()
    assert out == [(True, 29), ("next", 30)]


def test_same_instant_target_needs_an_empty_queue():
    k = Kernel()
    out = []
    probe(k, 10, 10, out)
    k.schedule_at(10, lambda: None)  # scheduled later, but due now
    probe(k, 20, 20, out)
    k.run()
    assert out == [(False, 10), (True, 20)]


def test_refuses_beyond_until():
    k = Kernel()
    out = []
    probe(k, 10, 51, out)
    probe(k, 20, 50, out)
    assert k.run(until=50) == 50
    assert out == [(False, 10), (True, 50)]


def test_refuses_under_max_events():
    k = Kernel()
    out = []
    probe(k, 10, 40, out)
    k.run(max_events=5)
    assert out == [(False, 10)]


def test_refuses_outside_run():
    k = Kernel()
    assert k.advance_to(5) is False
    assert k.now == 0
    k.schedule_at(10, lambda: None)
    k.run()
    assert k.advance_to(20) is False  # the bound is cleared on exit
    assert k.now == 10


def test_bound_is_cleared_when_a_callback_raises():
    k = Kernel()

    def boom():
        raise RuntimeError("boom")

    k.schedule_at(10, boom)
    with pytest.raises(RuntimeError):
        k.run()
    assert k.advance_to(20) is False


def test_run_until_the_past_raises():
    k = Kernel()
    k.schedule_at(100, lambda: None)
    assert k.run(until=50) == 50
    with pytest.raises(SchedulingError):
        k.run(until=20)
    assert k.now == 50
    assert k.run(until=50) == 50  # the present is allowed
    assert k.run() == 100
