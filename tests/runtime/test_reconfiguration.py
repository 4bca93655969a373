"""Dynamic reconfiguration: runtime component creation, live connection,
rebinding, and observer-in-the-loop adaptation."""

import numpy as np
import pytest

from repro.core import APPLICATION_LEVEL, Application, CONTROL, OS_LEVEL
from repro.mjpeg import decode_image, generate_stream
from repro.mjpeg.components import IdctComponent, build_smp_assembly
from repro.runtime import NativeRuntime, ShardedSmpSimRuntime, SmpSimRuntime
from repro.runtime.base import RuntimeError_
from repro.sim.process import Timeout


def slow_pipeline(n_messages=30):
    """Producer feeding a deliberately slow consumer stage."""
    app = Application("reconf")

    def producer(ctx):
        for i in range(n_messages):
            yield from ctx.compute("ns", 1_000)
            yield from ctx.send("out", i)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def consumer(ctx):
        count = 0
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return count
            yield from ctx.compute("ns", 100_000)
            count += 1

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=consumer, provides=["in"])
    app.connect("prod", "out", "cons", "in")
    app.attach_observer()
    return app


def test_add_component_mid_run_sim(sim_runtime=SmpSimRuntime):
    """Two components created mid-run, wired to each other, run to
    completion inside the original application."""
    app = slow_pipeline()
    rt = sim_runtime()
    rt.deploy(app)
    rt.start()

    received = []

    def tap_behavior(ctx):
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return
            received.append(msg.payload)

    def feeder_behavior(ctx):
        for i in range(3):
            yield from ctx.send("tap_out", f"t{i}")
        yield from ctx.send("tap_out", None, kind=CONTROL, tag="eos")

    def controller(runtime, ctx):
        yield Timeout(1_000)  # let the pipeline start
        from repro.core import Component

        tap = Component("tap", behavior=tap_behavior)
        tap.add_provided("in")
        runtime.add_component(tap, observe=True)
        runtime.add_component(
            Component("feeder", behavior=feeder_behavior),
            connections=[("feeder", "tap_out", "tap", "in")],
        )

    rt.spawn_controller(controller)
    rt.wait()
    rt.stop()
    assert received == ["t0", "t1", "t2"]
    assert "tap" in rt.containers and "feeder" in rt.containers
    assert rt.probe("tap").data_receives.value == 3


def test_dynamic_component_is_observable(sim_runtime=SmpSimRuntime):
    app = slow_pipeline()
    rt = sim_runtime()
    rt.deploy(app)
    rt.start()

    def extra_behavior(ctx):
        yield from ctx.compute("ns", 5_000)

    def controller(runtime, ctx):
        yield Timeout(100)
        from repro.core import Component

        runtime.add_component(Component("extra", behavior=extra_behavior), observe=True)

    rt.spawn_controller(controller)
    rt.wait()
    reports = rt.collect()
    rt.stop()
    assert reports[("extra", OS_LEVEL)]["cpu_time_us"] == 5
    assert ("extra", APPLICATION_LEVEL) in reports


def test_rebind_redirects_messages(sim_runtime=SmpSimRuntime):
    """Messages sent after a rebind arrive at the new target."""
    app = Application("rebind")
    got = {"a": [], "b": []}

    def producer(ctx):
        yield from ctx.send("out", 1)
        yield from ctx.compute("ns", 10_000)  # controller rebinds meanwhile
        yield from ctx.send("out", 2)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def consumer(tag):
        def behavior(ctx):
            while True:
                msg = yield from ctx.receive("in")
                if msg.kind == CONTROL:
                    return
                got[tag].append(msg.payload)

        return behavior

    app.create("prod", behavior=producer, requires=["out"])
    app.create("a", behavior=consumer("a"), provides=["in"])
    app.create("b", behavior=consumer("b"), provides=["in"])
    app.connect("prod", "out", "a", "in")
    app.attach_observer()
    rt = sim_runtime()
    rt.deploy(app)
    rt.start()

    def controller(runtime, ctx):
        yield Timeout(5_000)
        runtime.rebind("prod", "out", "b", "in")
        # stop the now-orphaned consumers so wait() can finish
        yield Timeout(100_000)
        runtime.containers["a"].context.component.get_provided("in").binding.channel.put(
            __import__("repro.core.messages", fromlist=["Message"]).Message(
                payload=None, kind=CONTROL, tag="eos"
            )
        )

    rt.spawn_controller(controller)
    rt.wait()
    rt.stop()
    assert got["a"] == [1]
    assert got["b"] == [2]


def test_autoscale_idct_mid_run_decodes_all_frames(sim_runtime=SmpSimRuntime):
    """The headline scenario: observation detects the 1-IDCT bottleneck,
    the controller adds two more IDCTs mid-run, and every frame still
    decodes bit-identically."""
    stream = generate_stream(12, 96, 96, quality=75, seed=21)
    app = build_smp_assembly(stream, n_idct=1, keep_frames=True)
    app.components["Reorder"].n_upstream = None  # count upstreams live
    rt = sim_runtime()
    rt.deploy(app)
    rt.start()

    added = []

    def controller(runtime, ctx):
        yield Timeout(10_000_000)  # let the bottleneck establish itself
        for i in (2, 3):
            comp = IdctComponent(f"IDCT_{i}", i)
            runtime.add_component(
                comp,
                connections=[(comp, "idctReorder", "Reorder", "idctReorder")],
                observe=True,
            )
            runtime.connect_live("Fetch", f"fetchIdct{i}", comp, f"_fetchIdct{i}")
            added.append(comp.name)

    rt.spawn_controller(controller)
    rt.wait()
    reports = rt.collect()
    rt.stop()

    assert added == ["IDCT_2", "IDCT_3"]
    # every frame decoded and bit-identical to the reference
    reorder = app.components["Reorder"]
    assert sorted(reorder.frames) == list(range(1, 12))
    for rec in stream:
        if rec.index == 0:
            continue
        ref = decode_image(rec.frame.payload, 96, 96, 75)
        assert np.array_equal(reorder.frames[rec.index], ref)
    # the added IDCTs actually processed work
    for name in added:
        assert reports[(name, APPLICATION_LEVEL)]["receives"] > 0
    # message conservation across the reconfigured assembly
    total_sent = reports[("Fetch", APPLICATION_LEVEL)]["sends"]
    assert reports[("Reorder", APPLICATION_LEVEL)]["receives"] == total_sent


def test_autoscale_improves_makespan(sim_runtime=SmpSimRuntime):
    stream = generate_stream(12, 96, 96, quality=75, seed=22)

    def run(scale):
        app = build_smp_assembly(stream, n_idct=1, use_stored_coefficients=True)
        app.components["Reorder"].n_upstream = None
        rt = sim_runtime()
        rt.deploy(app)
        rt.start()
        if scale:
            def controller(runtime, ctx):
                yield Timeout(5_000_000)
                for i in (2, 3):
                    comp = IdctComponent(f"IDCT_{i}", i)
                    runtime.add_component(
                        comp,
                        connections=[(comp, "idctReorder", "Reorder", "idctReorder")],
                    )
                    runtime.connect_live("Fetch", f"fetchIdct{i}", comp, f"_fetchIdct{i}")

            rt.spawn_controller(controller)
        rt.wait()
        rt.stop()
        return rt.makespan_ns

    static = run(scale=False)
    scaled = run(scale=True)
    assert scaled < 0.75 * static, (static, scaled)


def test_add_component_native_runtime():
    app = slow_pipeline(n_messages=5)
    rt = NativeRuntime()
    rt.deploy(app)
    rt.start()
    from repro.core import Component

    seen = []

    def late(ctx):
        msg = yield from ctx.receive("in")
        seen.append(msg.payload)

    comp = Component("late", behavior=late)
    comp.add_provided("in")
    rt.add_component(comp, observe=True)

    def pusher(ctx):
        yield from ctx.send("to_late", "hello")

    rt.add_component(
        Component("pusher", behavior=pusher),
        connections=[("pusher", "to_late", "late", "in")],
    )
    rt.wait()
    rt.stop()
    assert seen == ["hello"]


def test_reconfiguration_requires_deployed_app(sim_runtime=SmpSimRuntime):
    from repro.core import Component

    rt = sim_runtime()
    with pytest.raises(RuntimeError_, match="deploy"):
        rt.add_component(Component("x", behavior=lambda ctx: iter(())))
    with pytest.raises(RuntimeError_, match="no deployed"):
        rt.connect_live("a", "out", "b", "in")


def test_duplicate_dynamic_name_rejected(sim_runtime=SmpSimRuntime):
    from repro.core import Component, ConnectionError_

    app = slow_pipeline()
    rt = sim_runtime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(ConnectionError_, match="duplicate"):
        rt.add_component(Component("prod", behavior=lambda ctx: iter(())))
    rt.wait()
    rt.stop()


#: The simulated scenarios above; each takes the runtime factory to run on.
SIM_SCENARIOS = [
    test_add_component_mid_run_sim,
    test_dynamic_component_is_observable,
    test_rebind_redirects_messages,
    test_autoscale_idct_mid_run_decodes_all_frames,
    test_autoscale_improves_makespan,
    test_reconfiguration_requires_deployed_app,
    test_duplicate_dynamic_name_rejected,
]


@pytest.mark.parametrize("scenario", SIM_SCENARIOS, ids=lambda test: test.__name__[5:])
def test_reconfiguration_on_the_sharded_runtime(scenario):
    """Each simulated scenario on two shards of one kernel: a component
    added after deploy takes its core, and the shard owning that core."""
    scenario(sim_runtime=lambda: ShardedSmpSimRuntime(2))
