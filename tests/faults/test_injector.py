"""Fault injector semantics on the simulated SMP runtime."""

import numpy as np
import pytest

from repro.core import InjectedFault
from repro.faults import FaultInjector, FaultPlan
from repro.runtime import RunConfig, SmpSimRuntime, build_run

from tests.faults.conftest import make_pipeline


def run_with_plan(plan, n_messages=10, payload=None):
    app, sink = make_pipeline(n_messages=n_messages, payload=payload)
    rt = SmpSimRuntime()
    rt.deploy(app)
    injector = FaultInjector(plan).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    return app, sink, injector, rt


def test_drop_probability_one_loses_all_data_but_never_control():
    plan = FaultPlan(seed=0).drop("prod", "out", probability=1.0)
    app, sink, injector, _ = run_with_plan(plan)
    # Every data message dropped, yet the EOS control message arrived
    # (the consumer terminated) -- control traffic is never faulted.
    assert sink == []
    assert injector.counts() == {"drop": 10}


def test_duplicate_probability_one_doubles_delivery():
    plan = FaultPlan(seed=0).duplicate("prod", "out", probability=1.0)
    _, sink, injector, _ = run_with_plan(plan, n_messages=5)
    assert len(sink) == 10
    assert injector.counts() == {"duplicate": 5}


def test_corrupt_changes_payload_deterministically():
    payload = np.arange(32, dtype=np.float32)
    plan = FaultPlan(seed=3).corrupt("prod", "out", probability=1.0)
    _, sink, _, _ = run_with_plan(plan, n_messages=4, payload=payload)
    assert len(sink) == 4
    assert all(not np.array_equal(got, payload) for got in sink)
    # each corrupted copy differs from the original in exactly one element
    for got in sink:
        assert int((got != payload).sum()) == 1
    # bit-exact replay: the same seed corrupts identically
    _, sink2, _, _ = run_with_plan(
        FaultPlan(seed=3).corrupt("prod", "out", probability=1.0),
        n_messages=4,
        payload=payload,
    )
    assert all(np.array_equal(a, b) for a, b in zip(sink, sink2))


def test_corrupt_never_mutates_the_senders_buffer():
    payload = np.arange(8, dtype=np.float32)
    original = payload.copy()
    plan = FaultPlan(seed=1).corrupt("prod", "out", probability=1.0)
    run_with_plan(plan, n_messages=2, payload=payload)
    assert np.array_equal(payload, original)


def test_delay_fault_extends_makespan():
    _, _, _, rt_clean = run_with_plan(FaultPlan(seed=0), n_messages=6)
    plan = FaultPlan(seed=0).delay("prod", "out", probability=1.0, delay_ns=10_000_000)
    _, sink, injector, rt_slow = run_with_plan(plan, n_messages=6)
    assert len(sink) == 6  # delayed, not lost
    assert injector.counts() == {"delay": 6}
    assert rt_slow.makespan_ns >= rt_clean.makespan_ns + 6 * 10_000_000


def test_crash_at_nth_receive_raises_injected_fault_without_supervision():
    plan = FaultPlan(seed=0).crash("cons", on_receive=3)
    app, sink = make_pipeline(n_messages=10)
    rt = SmpSimRuntime()
    rt.deploy(app)
    FaultInjector(plan).install(rt)
    rt.start()
    with pytest.raises(InjectedFault, match="injected crash fault in 'cons'"):
        rt.wait()
    # the third data message was consumed by the crash
    assert len(sink) == 2


def test_timed_crash_is_armed_by_the_kernel_fault_process():
    from repro.core import Application, CONTROL

    plan = FaultPlan(seed=0).crash("cons", at_ns=1_000_000)
    app = Application("timed")

    def producer(ctx):
        for i in range(10):
            yield from ctx.compute("ns", 500_000)  # spread sends over 5 ms
            yield from ctx.send("out", i)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def consumer(ctx):
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=consumer, provides=["in"])
    app.connect("prod", "out", "cons", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    injector = FaultInjector(plan).install(rt)
    rt.start()
    with pytest.raises(InjectedFault, match="crash"):
        rt.wait()
    armed = [e for e in injector.log if e["kind"] == "crash-armed"]
    assert [e["t_ns"] for e in armed] == [1_000_000]
    fired = [e for e in injector.log if e["kind"] == "crash"]
    assert len(fired) == 1 and fired[0]["t_ns"] >= 1_000_000


def test_timed_crash_arms_on_the_victims_own_shard_clock():
    from repro.core import Application, CONTROL

    def run(n_shards):
        app = Application("timed-sharded")

        def producer(ctx):
            for i in range(10):
                yield from ctx.compute("ns", 500_000)
                yield from ctx.send("out", i)
            yield from ctx.send("out", None, kind=CONTROL, tag="eos")

        def consumer(ctx):
            while True:
                msg = yield from ctx.receive("in")
                if msg.kind == CONTROL:
                    return

        # prod and cons sit on shard 1 of 2 with nothing linking them to
        # shard 0, whose clock runs ahead unconstrained.
        app.create("idle", behavior=lambda ctx: ctx.compute("ns", 10)).place(core=0)
        app.create("prod", behavior=producer, requires=["out"]).place(core=14)
        app.create("cons", behavior=consumer, provides=["in"]).place(core=15)
        app.connect("prod", "out", "cons", "in")
        plan = FaultPlan(seed=0).crash("cons", at_ns=1_500_000)
        rt = build_run(
            RunConfig(shards=n_shards, faults=plan, policy="restart"), app
        )
        rt.start()
        rt.wait()
        rt.stop()
        return rt.injector.log

    one = run(1)
    fired = [e for e in one if e["kind"] == "crash"]
    assert len(fired) == 1 and fired[0]["t_ns"] >= 1_500_000
    assert run(2) == one


def test_stall_freezes_the_receiver_by_the_configured_delay():
    _, _, _, rt_clean = run_with_plan(FaultPlan(seed=0), n_messages=6)
    plan = FaultPlan(seed=0).stall("cons", on_receive=2, delay_ns=25_000_000)
    _, sink, injector, rt_stalled = run_with_plan(plan, n_messages=6)
    assert len(sink) == 6
    assert injector.counts() == {"stall": 1}
    # The stall dominates the makespan (it may overlap producer work).
    assert rt_stalled.makespan_ns >= 25_000_000 > rt_clean.makespan_ns


def test_overflow_bounds_the_mailbox_and_counts_losses():
    from repro.core import Application, CONTROL

    # The consumer is much slower than the producer, so the mailbox backs
    # up; with capacity 3 the overflowing sends must be refused.
    app = Application("overflow")
    sink = []

    def producer(ctx):
        for i in range(10):
            yield from ctx.send("out", i)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def slow_consumer(ctx):
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return
            yield from ctx.compute("ns", 200_000)
            sink.append(msg.payload)

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=slow_consumer, provides=["in"])
    app.connect("prod", "out", "cons", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    injector = FaultInjector(FaultPlan(seed=0).overflow("prod", "out", capacity=3)).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    counts = injector.counts()
    assert counts.get("overflow", 0) >= 1
    assert len(sink) == 10 - counts["overflow"]


def test_schedule_replays_bit_exactly_for_the_same_seed():
    def one_run(seed):
        plan = (
            FaultPlan(seed=seed)
            .drop("prod", "out", probability=0.3)
            .duplicate("prod", "out", probability=0.3)
        )
        _, _, injector, _ = run_with_plan(plan, n_messages=40)
        return injector.log

    assert one_run(5) == one_run(5)
    assert one_run(5) != one_run(6)


def test_faults_feed_the_observation_probe():
    plan = FaultPlan(seed=0).drop("prod", "out", probability=1.0)
    app, _, injector, rt = run_with_plan(plan, n_messages=4)
    probe = rt.probe("prod")
    assert probe.fault_counts == {"drop": 4}


def test_install_rejects_unknown_components():
    plan = FaultPlan(seed=0).crash("ghost", on_receive=1)
    app, _ = make_pipeline()
    rt = SmpSimRuntime()
    rt.deploy(app)
    with pytest.raises(RuntimeError, match="unknown component 'ghost'"):
        FaultInjector(plan).install(rt)
