"""Coverage of smaller API paths: try_receive, observer helpers, etc."""

import pytest

from repro.core import Application, CONTROL
from repro.core.errors import ObservationError
from repro.core.observer import ObserverComponent
from repro.runtime import NativeRuntime, SmpSimRuntime

from tests.runtime.conftest import make_pipeline_app


def test_try_receive_on_sim_runtime():
    app = Application("poll")
    seen = []

    def poller(ctx):
        # nothing there yet
        seen.append(ctx.try_receive("in"))
        msg = yield from ctx.receive("in")  # blocking pairs with the put
        seen.append(msg.payload)
        seen.append(ctx.try_receive("in"))

    def pusher(ctx):
        yield from ctx.send("out", "hello")

    app.create("poller", behavior=poller, provides=["in"])
    app.create("pusher", behavior=pusher, requires=["out"])
    app.connect("pusher", "out", "poller", "in")
    rt = SmpSimRuntime()
    rt.run(app)
    assert seen[0] is None
    assert seen[1] == "hello"
    assert seen[2] is None


def test_try_receive_on_native_runtime():
    app = Application("poll")
    seen = []

    def poller(ctx):
        msg = yield from ctx.receive("in")
        seen.append(msg.payload)
        seen.append(ctx.try_receive("in"))  # drained

    def pusher(ctx):
        yield from ctx.send("out", b"data")

    app.create("poller", behavior=poller, provides=["in"])
    app.create("pusher", behavior=pusher, requires=["out"])
    app.connect("pusher", "out", "poller", "in")
    rt = NativeRuntime()
    rt.run(app)
    rt.stop()
    assert seen == [b"data", None]


def test_observer_rejects_unattached_target():
    app = make_pipeline_app()
    rt = SmpSimRuntime()
    rt.run(app)
    with pytest.raises(ObservationError, match="not attached"):
        rt.collect(plan=[("ghost", "os")])


def test_observer_rejects_bad_level_in_plan():
    app = make_pipeline_app()
    rt = SmpSimRuntime()
    rt.run(app)
    with pytest.raises(ObservationError, match="unknown observation level"):
        rt.collect(plan=[("prod", "bogus")])


def test_observer_register_twice_rejected():
    app = make_pipeline_app(observer=False)
    obs = ObserverComponent()
    app.add(obs)
    obs.register_target(app.components["prod"])
    with pytest.raises(ObservationError, match="already observed"):
        obs.register_target(app.components["prod"])


def test_runtime_probe_accessor_and_unknown_component():
    from repro.runtime.base import RuntimeError_

    app = make_pipeline_app()
    rt = SmpSimRuntime()
    rt.run(app)
    assert rt.container("prod").probe.data_sends.value == 5
    with pytest.raises(RuntimeError_, match="no deployed"):
        rt.container("ghost")


def test_double_deploy_rejected():
    from repro.runtime.base import RuntimeError_

    rt = SmpSimRuntime()
    rt.deploy(make_pipeline_app())
    with pytest.raises(RuntimeError_, match="already"):
        rt.deploy(make_pipeline_app())


def test_start_before_deploy_rejected():
    from repro.runtime.base import RuntimeError_

    with pytest.raises(RuntimeError_, match="deploy"):
        SmpSimRuntime().start()
    with pytest.raises(RuntimeError_, match="deploy"):
        NativeRuntime().start()


def test_context_log_collects():
    app = Application("logs")

    def chatty(ctx):
        ctx.log("starting")
        yield from ctx.compute("x", 1)
        ctx.log("done")

    app.create("c", behavior=chatty)
    rt = SmpSimRuntime()
    rt.run(app)
    messages = [text for (_, comp, text) in rt.logs if comp == "c"]
    assert messages == ["starting", "done"]
