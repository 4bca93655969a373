"""Unit tests for the FIFO channel."""

import pytest

from repro.sim import Channel, Kernel

from reference_process import DeadlockError, Process, run


def test_channel_put_then_get():
    k = Kernel()
    ch = Channel(k)
    got = []

    def consumer():
        got.append((yield from ch.get()))
        got.append((yield from ch.get()))

    ch.put("x")
    ch.put("y")
    Process(k, consumer())
    k.run()
    assert got == ["x", "y"]


def test_channel_get_blocks_until_put():
    k = Kernel()
    ch = Channel(k)
    got = []

    def consumer():
        got.append(((yield from ch.get()), k.now))

    Process(k, consumer())
    k.schedule(77, ch.put, "late")
    k.run()
    assert got == [("late", 77)]


def test_channel_fifo_order_across_waiters():
    k = Kernel()
    ch = Channel(k)
    got = []

    def consumer(tag):
        item = yield from ch.get()
        got.append((tag, item))

    Process(k, consumer("c1"))
    Process(k, consumer("c2"), start_delay_ns=1)
    k.schedule(10, ch.put, "a")
    k.schedule(20, ch.put, "b")
    k.run()
    assert got == [("c1", "a"), ("c2", "b")]


def test_channel_try_get():
    k = Kernel()
    ch = Channel(k)
    assert ch.try_get() == (False, None)
    ch.put(9)
    assert ch.try_get() == (True, 9)


def test_channel_counters():
    k = Kernel()
    ch = Channel(k)
    ch.put(1)
    ch.put(2)

    def consumer():
        yield from ch.get()

    Process(k, consumer())
    k.run()
    assert ch.total_put == 2
    assert ch.total_got == 1
    assert len(ch) == 1


def test_deadlock_detection():
    k = Kernel()
    ch = Channel(k)

    def starved():
        yield from ch.get()

    Process(k, starved())
    with pytest.raises(DeadlockError):
        run(k)
