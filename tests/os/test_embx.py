"""Unit tests for the EMBX-like middleware."""

import pytest

from repro.embx import BOUNCE_BUFFER_BYTES, DistributedObject, EmbxError, EmbxTransport
from repro.embx.transport import DEFAULT_OBJECT_BYTES, SIGNAL_LATENCY_NS
from repro.hw import make_sti7200
from repro.os21 import OS21System
from repro.sim import Kernel


def make_stack():
    k = Kernel()
    sys_ = OS21System(k, make_sti7200())
    transport = EmbxTransport(k, sys_.platform.region("sdram"))
    return k, sys_, transport


def test_object_allocation_in_shared_region():
    k, sys_, tr = make_stack()
    obj = tr.create_object("o", owner_cpu=0)
    assert obj.size_bytes == DEFAULT_OBJECT_BYTES == 25 * 1024
    assert sys_.platform.region("sdram").used_bytes == 25 * 1024


def test_duplicate_object_name_rejected():
    k, sys_, tr = make_stack()
    tr.create_object("o", owner_cpu=0)
    with pytest.raises(EmbxError, match="already exists"):
        tr.create_object("o", owner_cpu=1)


def test_send_receive_roundtrip():
    k, sys_, tr = make_stack()
    obj = tr.create_object("o", owner_cpu=1)
    got = []

    def sender():
        yield from tr.send(obj, {"frame": 7}, nbytes=1024)

    def receiver():
        payload, nbytes = yield from tr.receive(obj)
        got.append((payload, nbytes))

    sys_.task_create(receiver(), name="rx", cpu=1)
    sys_.task_create(sender(), name="tx", cpu=0)
    sys_.shutdown()
    k.run()
    assert got == [({"frame": 7}, 1024)]


def test_send_is_asynchronous():
    """EMBX_Send completes without a receiver (write semantics)."""
    k, sys_, tr = make_stack()
    obj = tr.create_object("o", owner_cpu=1)
    done = []

    def sender():
        yield from tr.send(obj, "m", nbytes=100)
        done.append(k.now)

    sys_.task_create(sender(), name="tx", cpu=0)
    sys_.shutdown()
    k.run()
    assert done and len(obj.queue) == 1


def test_receive_blocks_until_send():
    k, sys_, tr = make_stack()
    obj = tr.create_object("o", owner_cpu=1)
    times = {}

    def receiver():
        yield from tr.receive(obj)
        times["rx_done"] = k.now

    def sender():
        from repro.sim.executor import Compute

        yield Compute("ns", 500_000)
        yield from tr.send(obj, "m", nbytes=0)
        times["tx_done"] = k.now

    sys_.task_create(receiver(), name="rx", cpu=1)
    sys_.task_create(sender(), name="tx", cpu=0)
    sys_.shutdown()
    k.run()
    assert times["rx_done"] >= times["tx_done"]
    assert times["rx_done"] >= 500_000


def test_effective_bytes_linear_below_knee():
    k, sys_, tr = make_stack()
    assert tr.effective_copy_bytes(1000) == 1000
    assert tr.effective_copy_bytes(BOUNCE_BUFFER_BYTES) == BOUNCE_BUFFER_BYTES


def test_effective_bytes_penalised_above_knee():
    k, sys_, tr = make_stack()
    n = BOUNCE_BUFFER_BYTES + 10_000
    eff = tr.effective_copy_bytes(n)
    assert eff == BOUNCE_BUFFER_BYTES + 1.8 * 10_000
    # marginal cost above the knee exceeds marginal cost below it
    below = tr.effective_copy_bytes(40_000) / 40_000
    above = (tr.effective_copy_bytes(200_000) - tr.effective_copy_bytes(100_000)) / 100_000
    assert above > below


def test_send_cost_st40_slower_than_st231():
    """Figure 8 ordering: same message, ST40 send takes longer."""
    durations = {}
    for cpu, tag in [(0, "st40"), (1, "st231")]:
        k, sys_, tr = make_stack()
        obj = tr.create_object("o", owner_cpu=2)

        def sender():
            t0 = k.now
            yield from tr.send(obj, "m", nbytes=100 * 1024)
            durations[tag] = k.now - t0

        sys_.task_create(sender(), name="tx", cpu=cpu)
        sys_.shutdown()
        k.run()
    assert durations["st40"] > 1.5 * durations["st231"]


def test_send_receive_counters():
    k, sys_, tr = make_stack()
    obj = tr.create_object("o", owner_cpu=1)

    def sender():
        for _ in range(3):
            yield from tr.send(obj, "m", nbytes=10)

    def receiver():
        for _ in range(3):
            yield from tr.receive(obj)

    sys_.task_create(receiver(), name="rx", cpu=1)
    sys_.task_create(sender(), name="tx", cpu=0)
    sys_.shutdown()
    k.run()
    assert tr.sends == 3
    assert tr.receives == 3


def test_interrupt_counts_per_owner_cpu():
    """Every send raises one interrupt on the receiving (owner) CPU."""
    k, sys_, tr = make_stack()
    obj1 = tr.create_object("o1", owner_cpu=1)
    obj2 = tr.create_object("o2", owner_cpu=2)

    def sender():
        for _ in range(3):
            yield from tr.send(obj1, "m", nbytes=10)
        yield from tr.send(obj2, "m", nbytes=10)

    def receiver(obj, n):
        def body():
            for _ in range(n):
                yield from tr.receive(obj)

        return body()

    sys_.task_create(receiver(obj1, 3), name="rx1", cpu=1)
    sys_.task_create(receiver(obj2, 1), name="rx2", cpu=2)
    sys_.task_create(sender(), name="tx", cpu=0)
    sys_.shutdown()
    k.run()
    assert tr.interrupts_by_cpu == {1: 3, 2: 1}
