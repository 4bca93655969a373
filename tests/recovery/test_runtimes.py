"""Exactly-once recovery on the other two runtimes.

The sti7200 path exercises replay through the EMBX distributed objects
(``DistributedObject.requeue``), the native path exercises replay into a
live ``queue.Queue`` mailbox with one thread per component.
"""

from repro.core import Application, CONTROL, ComponentState
from repro.faults import FaultInjector, FaultPlan, RestartPolicy, Supervisor
from repro.recovery import RecoveryManager
from repro.runtime import NativeRuntime, Sti7200SimRuntime

from tests.recovery.conftest import CheckpointedSink, int_producer

N = 16


def _sti_app(n_messages=N):
    app = Application("stirec")
    app.create("prod", behavior=int_producer(n_messages), requires=["out"])
    sink = app.add(CheckpointedSink("cons"))
    app.connect("prod", "out", "cons", "in")
    app.components["prod"].place(cpu=0)
    app.components["cons"].place(cpu=1)  # cross-CPU: traffic rides EMBX
    return app, sink


def test_sti7200_drops_healed_through_embx():
    app, sink = _sti_app()
    rt = Sti7200SimRuntime()
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=4).drop("prod", "out", probability=0.4)).install(rt)
    recovery = RecoveryManager().install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(N))
    assert recovery.replayed > 0


def test_sti7200_crash_restores_and_replays_through_embx():
    app, sink = _sti_app()
    rt = Sti7200SimRuntime()
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=1).crash("cons", on_receive=7)).install(rt)
    recovery = RecoveryManager(checkpoint_interval=4).install(rt)
    Supervisor(policy=RestartPolicy()).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(N))
    assert recovery.restores == 1 and recovery.replayed > 0
    assert app.components["cons"].state == ComponentState.STOPPED


def test_native_crash_restores_checkpoint_exactly_once():
    app = Application("natrec")
    app.create("prod", behavior=int_producer(N), requires=["out"])
    sink = app.add(CheckpointedSink("cons"))
    app.connect("prod", "out", "cons", "in")
    rt = NativeRuntime(receive_timeout_s=10.0, join_timeout_s=30.0)
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=2).crash("cons", on_receive=6)).install(rt)
    recovery = RecoveryManager(checkpoint_interval=4).install(rt)
    Supervisor(policy=RestartPolicy()).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(N))
    assert recovery.restores == 1 and recovery.replayed > 0


def test_native_duplicates_deduped():
    app = Application("natdup")
    app.create("prod", behavior=int_producer(N), requires=["out"])
    sink = app.add(CheckpointedSink("cons"))
    app.connect("prod", "out", "cons", "in")
    rt = NativeRuntime(receive_timeout_s=10.0, join_timeout_s=30.0)
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=8).duplicate("prod", "out", probability=1.0)).install(rt)
    recovery = RecoveryManager().install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(N))
    assert recovery.deduped == N
