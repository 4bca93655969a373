"""Unit tests for semaphores, mutexes and FIFO channels."""

import pytest

from repro.sim import Channel, Kernel, Mutex, Semaphore, Timeout
from repro.sim.errors import DeadlockError, SimulationError

from reference_process import Process


def test_semaphore_fast_path_does_not_block():
    k = Kernel()
    sem = Semaphore(k, value=2)
    acquired = []

    def body():
        yield from sem.acquire()
        acquired.append(k.now)

    Process(k, body())
    Process(k, body())
    k.run()
    assert acquired == [0, 0]
    assert sem.value == 0


def test_semaphore_blocks_and_wakes_fifo():
    k = Kernel()
    sem = Semaphore(k, value=1)
    order = []

    def holder():
        yield from sem.acquire()
        yield Timeout(100)
        sem.release()

    def waiter(tag):
        yield from sem.acquire()
        order.append((tag, k.now))
        sem.release()

    Process(k, holder())
    Process(k, waiter("first"), start_delay_ns=1)
    Process(k, waiter("second"), start_delay_ns=2)
    k.run()
    assert order == [("first", 100), ("second", 100)]


def test_semaphore_try_acquire():
    k = Kernel()
    sem = Semaphore(k, value=1)
    assert sem.try_acquire()
    assert not sem.try_acquire()
    sem.release()
    assert sem.try_acquire()


def test_semaphore_negative_initial_rejected():
    with pytest.raises(SimulationError):
        Semaphore(Kernel(), value=-1)


def test_mutex_double_release_rejected():
    k = Kernel()
    m = Mutex(k)
    assert m.try_acquire()
    m.release()
    with pytest.raises(SimulationError):
        m.release()


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


def test_bounded_channel_put_raises_when_full():
    k = Kernel()
    ch = Channel(k, capacity=1)
    ch.put(1)
    with pytest.raises(SimulationError, match="full"):
        ch.put(2)


def test_bounded_channel_put_blocking_waits_for_space():
    k = Kernel()
    ch = Channel(k, capacity=1)
    done = []

    def producer():
        yield from ch.put_blocking("a")
        yield from ch.put_blocking("b")
        done.append(k.now)

    def consumer():
        yield Timeout(50)
        item = yield from ch.get()
        assert item == "a"
        yield Timeout(50)
        item = yield from ch.get()
        assert item == "b"

    Process(k, producer())
    Process(k, consumer())
    k.run()
    assert done == [50]


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
        k.run()


def test_invalid_capacity_rejected():
    with pytest.raises(SimulationError):
        Channel(Kernel(), capacity=0)
