"""Per-receive deadlines (``timeout_ns``) on every runtime."""

import pytest

from repro.core import Application, CONTROL, DeadlineError
from repro.runtime import NativeRuntime, SmpSimRuntime, Sti7200SimRuntime
from repro.runtime.base import RuntimeError_
from repro.sim.kernel import Kernel
from repro.sim.resources import Channel

from tests.sim.reference_process import Process


def starved_app(timeout_ns):
    app = Application("starved")

    def starved(ctx):
        yield from ctx.receive("in", timeout_ns=timeout_ns)

    app.create("c", behavior=starved, provides=["in"])
    return app


def test_sim_deadline_raises_typed_error_with_context():
    rt = SmpSimRuntime()
    rt.deploy(starved_app(5_000_000))
    rt.start()
    with pytest.raises(DeadlineError) as err:
        rt.wait()
    assert err.value.component == "c"
    assert err.value.interface == "in"
    assert err.value.timeout_ns == 5_000_000
    assert "timed out" in str(err.value)
    # virtual time advanced exactly to the deadline
    assert rt.kernel.now >= 5_000_000


def test_sti7200_deadline_maps_embx_timeout_to_deadline_error():
    app = starved_app(3_000_000)
    app.components["c"].place(cpu=0)
    rt = Sti7200SimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(DeadlineError) as err:
        rt.wait()
    assert (err.value.component, err.value.interface) == ("c", "in")


def test_native_explicit_timeout_raises_deadline_error():
    rt = NativeRuntime(receive_timeout_s=60.0, join_timeout_s=10.0)
    rt.deploy(starved_app(100_000_000))  # 0.1 s, far below the runtime default
    rt.start()
    with pytest.raises(RuntimeError_) as err:
        rt.wait()
    cause = err.value.__cause__
    assert isinstance(cause, DeadlineError)
    assert cause.component == "c" and cause.interface == "in"
    assert cause.elapsed_ns >= 100_000_000
    rt.stop()


def test_native_placement_receive_timeout_overrides_runtime_default():
    app = Application("placed")

    def starved(ctx):
        yield from ctx.receive("in")  # no explicit deadline

    app.create("c", behavior=starved, provides=["in"])
    app.components["c"].place(receive_timeout_s=0.1)
    rt = NativeRuntime(receive_timeout_s=60.0, join_timeout_s=10.0)
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError_, match="timed out"):
        rt.wait()
    assert isinstance(rt._errors["c"], DeadlineError)
    assert rt._errors["c"].timeout_ns == 100_000_000


def fed_pipeline(timeout_ns, n_messages=20):
    app = Application("fed")
    received = []

    def producer(ctx):
        for i in range(n_messages):
            yield from ctx.send("out", i)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def consumer(ctx):
        while True:
            msg = yield from ctx.receive("in", timeout_ns=timeout_ns)
            if msg.kind == CONTROL:
                return len(received)
            received.append(msg.payload)

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=consumer, provides=["in"])
    app.connect("prod", "out", "cons", "in")
    return app, received


def test_sim_satisfied_deadlines_leak_no_timers():
    """Every armed deadline timer must be cancelled on delivery:
    ``Kernel.pending()`` returns to the no-deadline baseline."""
    app, received = fed_pipeline(timeout_ns=1_000_000_000)
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    rt.wait()
    rt.stop()
    assert len(received) == 20
    baseline_app, _ = fed_pipeline(timeout_ns=None)
    rt2 = SmpSimRuntime()
    rt2.deploy(baseline_app)
    rt2.start()
    rt2.wait()
    rt2.stop()
    assert rt.kernel.pending() == rt2.kernel.pending()


def test_native_satisfied_deadlines_deliver_normally():
    app, received = fed_pipeline(timeout_ns=5_000_000_000)
    rt = NativeRuntime(join_timeout_s=30.0)
    rt.deploy(app)
    rt.start()
    rt.wait()
    rt.stop()
    assert len(received) == 20


def test_channel_deadline_race_same_instant_delivery_wins():
    """A put scheduled at the exact deadline instant beats the timer
    (FIFO order: the put was scheduled first)."""
    kernel = Kernel()
    chan = Channel(kernel, name="race")
    outcome = {}

    def getter():
        ok, item = yield from chan.get_with_deadline(1_000)
        outcome["ok"], outcome["item"] = ok, item

    kernel.schedule(1_000, chan.put, "just-in-time")
    Process(kernel, getter(), name="getter")
    kernel.run()
    assert outcome == {"ok": True, "item": "just-in-time"}
    assert kernel.pending() == 0


def test_channel_deadline_expiry_unregisters_the_getter():
    kernel = Kernel()
    chan = Channel(kernel, name="expire")
    outcome = {}

    def getter():
        ok, item = yield from chan.get_with_deadline(500)
        outcome["first"] = (ok, item)
        ok, item = yield from chan.get_with_deadline(5_000)
        outcome["second"] = (ok, item)

    kernel.schedule(2_000, chan.put, "late")
    Process(kernel, getter(), name="getter")
    kernel.run()
    # first get expired; the late put went to the *second* get, not to a
    # ghost getter left behind by the expiry
    assert outcome["first"] == (False, None)
    assert outcome["second"] == (True, "late")
    assert len(chan) == 0
    assert kernel.pending() == 0


def test_tracing_context_forwards_timeout(monkeypatch):
    from repro.trace.tracer import enable_tracing

    rt = SmpSimRuntime()
    rt.deploy(starved_app(2_000_000))
    enable_tracing(rt)
    rt.start()
    with pytest.raises(DeadlineError):
        rt.wait()


def test_try_receive_counts_in_probe():
    """Satellite fix: polling receives feed the observation probe."""
    app = Application("poll")

    def producer(ctx):
        for i in range(5):
            yield from ctx.send("out", bytes(100))
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def poller(ctx):
        got = 0
        while got < 6:
            msg = ctx.try_receive("in")
            if msg is None:
                yield from ctx.compute("ns", 1_000)
                continue
            got += 1
        return got

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=poller, provides=["in"])
    app.connect("prod", "out", "cons", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    rt.wait()
    rt.stop()
    probe = rt.probe("cons")
    assert probe.data_receives.value == 5  # control EOS not counted
    assert probe.bytes_received > 0
