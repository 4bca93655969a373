"""FAILED-state propagation and bounded teardown on every runtime."""

import pytest

from repro.core import Application, CONTROL, ComponentState
from repro.runtime import NativeRuntime, SmpSimRuntime
from repro.runtime.base import RuntimeError_


def crashing_app(after=2, n_messages=6):
    app = Application("crashing")

    def producer(ctx):
        for i in range(n_messages):
            yield from ctx.send("out", i)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def consumer(ctx):
        seen = 0
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return seen
            seen += 1
            if seen == after:
                raise ValueError("boom at message %d" % seen)

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=consumer, provides=["in"])
    app.connect("prod", "out", "cons", "in")
    return app


def test_sim_failure_sets_component_and_thread_state():
    app = crashing_app()
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(ValueError, match="boom at message 2"):
        rt.wait()
    assert app.components["cons"].state == ComponentState.FAILED
    cont = rt.containers["cons"]
    assert cont.handle.state == "FAILED"
    # the sibling was not retroactively blamed
    assert app.components["prod"].state != ComponentState.FAILED


def test_native_failure_propagates_with_cause():
    app = crashing_app()
    rt = NativeRuntime(receive_timeout_s=5.0, join_timeout_s=10.0)
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError_, match="boom at message 2") as err:
        rt.wait()
    assert isinstance(err.value.__cause__, ValueError)
    assert app.components["cons"].state == ComponentState.FAILED
    rt.stop()


def test_native_join_timeout_bounds_teardown():
    app = Application("sleeper")

    def sleeper(ctx):
        yield from ctx.sleep(1_000_000_000)  # 1 s wall clock

    app.create("slow", behavior=sleeper)
    rt = NativeRuntime(join_timeout_s=0.2)
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError_, match="did not finish"):
        rt.wait()
    rt.stop()
    rt.containers["slow"].handle.join(timeout=5.0)


def test_sim_failure_does_not_wedge_restarted_runs():
    """A failed run leaves the runtime stoppable and a fresh deploy clean."""
    app = crashing_app()
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(ValueError):
        rt.wait()
    rt.stop()

    app2 = crashing_app(after=99)  # never actually crashes
    rt2 = SmpSimRuntime()
    rt2.deploy(app2)
    rt2.start()
    rt2.wait()
    rt2.stop()
    assert app2.components["cons"].state == ComponentState.STOPPED
