"""Unit tests for the CPU execution engine and scheduling policies."""

import pytest

from repro.sim import Channel, Event, Kernel, Timeout, WaitEvent
from repro.sim.executor import (
    Compute,
    ExecEngine,
    PriorityPolicy,
    RoundRobinPolicy,
    YieldCpu,
)


class UnitCpu:
    """1 unit of any opclass costs 1 ns."""

    def cost_ns(self, opclass, units):
        return int(units)


def make_engine(n_cores=1, policy=None):
    k = Kernel()
    engine = ExecEngine(k, [UnitCpu() for _ in range(n_cores)], policy or RoundRobinPolicy())
    return k, engine


def drain(k, engine):
    k.run()


def test_single_thread_compute_advances_time_and_charges_cpu():
    k, eng = make_engine()

    def body():
        yield Compute("op", 1000)

    t = eng.spawn(body(), name="t")
    eng.shutdown()
    k.run()
    assert t.state == "DONE"
    assert t.cpu_time_ns == 1000
    assert k.now == 1000
    assert t.end_time_ns - t.start_time_ns == 1000


def test_two_threads_one_core_serialize():
    k, eng = make_engine(n_cores=1)

    def body():
        yield Compute("op", 100)

    t1 = eng.spawn(body(), name="t1")
    t2 = eng.spawn(body(), name="t2")
    eng.shutdown()
    k.run()
    assert k.now == 200
    assert t1.cpu_time_ns == 100 and t2.cpu_time_ns == 100


def test_two_threads_two_cores_run_in_parallel():
    k, eng = make_engine(n_cores=2)

    def body():
        yield Compute("op", 100)

    eng.spawn(body())
    eng.spawn(body())
    eng.shutdown()
    k.run()
    assert k.now == 100


def test_round_robin_interleaves_on_quantum():
    k = Kernel()
    eng = ExecEngine(k, [UnitCpu()], RoundRobinPolicy(quantum_ns=10))
    finish = {}

    def body(tag):
        yield Compute("op", 20)
        finish[tag] = k.now

    eng.spawn(body("a"), name="a")
    eng.spawn(body("b"), name="b")
    eng.shutdown()
    k.run()
    # With 10ns quanta the two 20ns jobs interleave: both finish near 40ns,
    # rather than a finishing at 20 and b at 40.
    assert finish["a"] == 30
    assert finish["b"] == 40


def test_thread_sleep_releases_cpu():
    k, eng = make_engine(n_cores=1)
    log = []

    def sleeper():
        yield Timeout(1000)
        log.append(("sleeper", k.now))

    def worker():
        yield Compute("op", 100)
        log.append(("worker", k.now))

    eng.spawn(sleeper(), name="s")
    eng.spawn(worker(), name="w")
    eng.shutdown()
    k.run()
    assert log == [("worker", 100), ("sleeper", 1000)]


def test_thread_blocks_on_event_and_receives_value():
    k, eng = make_engine()
    ev = Event(k)
    got = []

    def waiter():
        value = yield WaitEvent(ev)
        got.append(value)

    eng.spawn(waiter())
    k.schedule(500, ev.trigger, "data")
    eng.shutdown()
    k.run()
    assert got == ["data"]


def test_channel_works_inside_threads():
    k, eng = make_engine(n_cores=2)
    ch = Channel(k)
    got = []

    def producer():
        yield Compute("op", 10)
        ch.put("m")

    def consumer():
        item = yield from ch.get()
        got.append((item, k.now))

    eng.spawn(consumer())
    eng.spawn(producer())
    eng.shutdown()
    k.run()
    assert got == [("m", 10)]


def test_priority_preemption():
    k = Kernel()
    eng = ExecEngine(k, [UnitCpu()], PriorityPolicy(quantum_ns=1_000_000))
    log = []

    def low():
        yield Compute("op", 1000)
        log.append(("low-done", k.now))

    def high():
        yield Compute("op", 100)
        log.append(("high-done", k.now))

    eng.spawn(low(), name="low", priority=1)

    def launch_high():
        eng.spawn(high(), name="high", priority=10)

    k.schedule(200, launch_high)
    eng.shutdown()
    k.run()
    # High preempts low at t=200, runs 100ns, low resumes and finishes at 1100.
    assert log == [("high-done", 300), ("low-done", 1100)]


def test_priority_equal_no_preempt():
    k = Kernel()
    eng = ExecEngine(k, [UnitCpu()], PriorityPolicy(quantum_ns=1_000_000))
    log = []

    def body(tag, n):
        yield Compute("op", n)
        log.append(tag)

    eng.spawn(body("first", 100), priority=5)
    eng.spawn(body("second", 100), priority=5)
    eng.shutdown()
    k.run()
    assert log == ["first", "second"]


def test_affinity_restricts_core():
    k, eng = make_engine(n_cores=2)

    def body():
        yield Compute("op", 100)

    t1 = eng.spawn(body(), affinity=[1])
    t2 = eng.spawn(body(), affinity=[1])
    eng.shutdown()
    k.run()
    # Both pinned to core 1: serialized.
    assert k.now == 200
    assert eng.cores[0].busy_ns == 0
    assert eng.cores[1].busy_ns == 200


def test_affinity_no_matching_core_rejected():
    from repro.sim.errors import SimulationError

    k, eng = make_engine(n_cores=1)
    with pytest.raises(SimulationError):
        eng.spawn((x for x in []), affinity=[5])


def test_yield_cpu_round_robins():
    k, eng = make_engine(n_cores=1)
    log = []

    def body(tag):
        log.append((tag, 1))
        yield YieldCpu()
        log.append((tag, 2))

    eng.spawn(body("a"))
    eng.spawn(body("b"))
    eng.shutdown()
    k.run()
    assert log == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]


def test_thread_exception_propagates():
    k, eng = make_engine()

    def body():
        yield Compute("op", 10)
        raise RuntimeError("task crashed")

    eng.spawn(body())
    eng.shutdown()
    with pytest.raises(RuntimeError, match="task crashed"):
        k.run()


def test_heterogeneous_cores_charge_differently():
    class SlowCpu:
        def cost_ns(self, opclass, units):
            return int(units) * 10

    k = Kernel()
    eng = ExecEngine(k, [UnitCpu(), SlowCpu()], RoundRobinPolicy())

    def body():
        yield Compute("op", 100)

    fast = eng.spawn(body(), affinity=[0])
    slow = eng.spawn(body(), affinity=[1])
    eng.shutdown()
    k.run()
    assert fast.cpu_time_ns == 100
    assert slow.cpu_time_ns == 1000


def test_core_utilization():
    k, eng = make_engine(n_cores=2)

    def body():
        yield Compute("op", 100)

    eng.spawn(body(), affinity=[0])
    eng.shutdown()
    k.run()
    assert eng.cores[0].busy_ns == k.now  # fully utilised
    assert eng.cores[1].busy_ns == 0


def test_context_switch_hook():
    k, eng = make_engine(n_cores=1)
    switches = []
    eng.on_context_switch = lambda core, old, new: switches.append(
        (core.index, old.name if old else None, new.name if new else None)
    )

    def body():
        yield Compute("op", 10)

    eng.spawn(body(), name="t1")
    eng.shutdown()
    k.run()
    assert (0, None, "t1") in switches
    assert (0, "t1", None) in switches
