"""Exactly-once delivery on the simulated SMP runtime.

The three fault kinds the recovery manager must neutralise, each in
isolation: DUPLICATE (receiver dedups), DROP (sequence gap healed from
the sender-side retransmit buffer), CRASH (checkpoint restore plus
replay of unacked messages).  Plus the bookkeeping invariants: ack on
checkpoint drains the retransmit buffers, and armed deadline timers do
not leak across restart/restore.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, RestartPolicy, Supervisor
from repro.recovery import RecoveryManager
from repro.runtime import SmpSimRuntime

from tests.recovery.conftest import make_recoverable_pipeline

N = 20


def _run(plan=None, n_messages=N, supervise=False, checkpoint_interval=4):
    app, sink = make_recoverable_pipeline(n_messages)
    rt = SmpSimRuntime()
    rt.deploy(app)
    if plan is not None:
        FaultInjector(plan).install(rt)
    recovery = RecoveryManager(checkpoint_interval=checkpoint_interval).install(rt)
    if supervise:
        Supervisor(policy=RestartPolicy()).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    return sink, recovery


def test_fault_free_run_is_untouched():
    sink, recovery = _run()
    assert sink.received == list(range(N))
    assert recovery.deduped == 0 and recovery.replayed == 0
    assert recovery.checkpoints > 0


def test_duplicates_are_deduped_idempotently():
    """Every data message transferred twice; the sink sees each once."""
    plan = FaultPlan(seed=5).duplicate("prod", "out", probability=1.0)
    sink, recovery = _run(plan)
    assert sink.received == list(range(N))
    assert recovery.deduped == N  # one discard per duplicated data message
    assert recovery.replayed == 0


def test_drops_are_healed_from_the_retransmit_buffer():
    plan = FaultPlan(seed=3).drop("prod", "out", probability=0.4)
    sink, recovery = _run(plan)
    assert sink.received == list(range(N))  # order preserved, nothing lost
    assert recovery.replayed > 0  # at least one gap was healed


def test_crash_restores_checkpoint_and_replays():
    plan = FaultPlan(seed=1).crash("cons", on_receive=9)
    sink, recovery = _run(plan, supervise=True)
    assert sink.received == list(range(N))
    assert recovery.restores == 1
    assert recovery.replayed > 0  # post-checkpoint messages re-delivered


def test_crash_without_snapshot_falls_back_to_epoch0_replay():
    """A component that never offers a snapshot is still exactly-once:
    full input replay from epoch 0 against a fresh behaviour."""
    from repro.core import Application, CONTROL

    seen = []
    app = Application("nockpt")

    def producer(ctx):
        for i in range(N):
            yield from ctx.send("out", i)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def sink_behavior(ctx):
        del seen[:]  # fresh start or epoch-0 replay: either way, from zero
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return len(seen)
            seen.append(msg.payload)

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=sink_behavior, provides=["in"])
    app.connect("prod", "out", "cons", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=0).crash("cons", on_receive=7)).install(rt)
    recovery = RecoveryManager().install(rt)
    Supervisor(policy=RestartPolicy()).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert seen == list(range(N))
    assert recovery.replayed >= 7  # everything before the crash came back


def test_acks_drain_the_retransmit_buffer():
    """Checkpoint commits release the delivered prefix sender-side."""
    sink, recovery = _run(checkpoint_interval=2)
    report = recovery.report()
    # The trailing unacked window is at most what fits between two
    # checkpoints (sends + EOS), never the whole stream.
    assert report["unacked"] < N
    assert report["checkpoints"] == recovery.checkpoints


def test_combined_faults_same_seed_same_outcome():
    plan = lambda: (  # noqa: E731
        FaultPlan(seed=9)
        .drop("prod", "out", probability=0.3)
        .duplicate("prod", "out", probability=0.3)
        .crash("cons", on_receive=11)
    )
    sink1, r1 = _run(plan(), supervise=True)
    sink2, r2 = _run(plan(), supervise=True)
    assert sink1.received == list(range(N)) == sink2.received
    assert (r1.replayed, r1.deduped, r1.restores) == (
        r2.replayed,
        r2.deduped,
        r2.restores,
    )


def test_recovered_restart_leaks_no_deadline_timers():
    """Satellite: deadline timers armed by receives must all be consumed
    or cancelled across a crash/restore/replay cycle -- ``pending()``
    lands exactly where a fault-free run without deadlines lands."""
    from repro.core import Application, CONTROL

    def deadline_pipeline(timeout_ns):
        app = Application("dl")
        got = []

        def producer(ctx):
            for i in range(12):
                yield from ctx.send("out", i)
            yield from ctx.send("out", None, kind=CONTROL, tag="eos")

        def consumer(ctx):
            del got[:]
            while True:
                msg = yield from ctx.receive("in", timeout_ns=timeout_ns)
                if msg.kind == CONTROL:
                    return len(got)
                got.append(msg.payload)

        app.create("prod", behavior=producer, requires=["out"])
        app.create("cons", behavior=consumer, provides=["in"])
        app.connect("prod", "out", "cons", "in")
        return app, got

    app, got = deadline_pipeline(timeout_ns=1_000_000_000)
    rt = SmpSimRuntime()
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=0).crash("cons", on_receive=5)).install(rt)
    RecoveryManager().install(rt)
    Supervisor(policy=RestartPolicy()).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert got == list(range(12))

    baseline_app, _ = deadline_pipeline(timeout_ns=None)
    rt2 = SmpSimRuntime()
    rt2.deploy(baseline_app)
    rt2.start()
    rt2.wait()
    rt2.stop()
    assert rt.kernel.pending() == rt2.kernel.pending()


def test_install_order_is_irrelevant_and_double_install_rejected():
    app, sink = make_recoverable_pipeline(6)
    rt = SmpSimRuntime()
    rt.deploy(app)
    recovery = RecoveryManager().install(rt)
    with pytest.raises(RuntimeError, match="already installed"):
        recovery.install(rt)
    with pytest.raises(RuntimeError, match="already has a recovery manager"):
        RecoveryManager().install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(6))
