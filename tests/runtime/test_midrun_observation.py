"""Mid-run (on-line) observation through scheduled collects."""

import pytest

from repro.core import APPLICATION_LEVEL, Application
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime
from repro.runtime.base import RuntimeError_

from tests.runtime.conftest import make_pipeline_app


def test_scheduled_collect_sees_intermediate_counters():
    app = make_pipeline_app(n_messages=50, payload_bytes=10_000)
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    early = rt.schedule_collect(1_000, plan=[("prod", APPLICATION_LEVEL)])
    # roughly mid-run: each message costs ~0.5ms compute, 50 messages
    mid = rt.schedule_collect(12_000_000, plan=[("prod", APPLICATION_LEVEL)])
    rt.wait()
    final = rt.collect(plan=[("prod", APPLICATION_LEVEL)])
    rt.stop()

    t_early, r_early = early.result
    t_mid, r_mid = mid.result
    sends_early = r_early[("prod", APPLICATION_LEVEL)]["sends"]
    sends_mid = r_mid[("prod", APPLICATION_LEVEL)]["sends"]
    sends_final = final[("prod", APPLICATION_LEVEL)]["sends"]
    assert sends_early <= sends_mid <= sends_final == 50
    assert sends_mid < 50  # genuinely mid-run
    assert sends_mid > 0
    assert t_early < t_mid


def test_scheduled_collect_requires_observer():
    app = make_pipeline_app(observer=False)
    rt = SmpSimRuntime()
    rt.deploy(app)
    with pytest.raises(RuntimeError_, match="observer"):
        rt.schedule_collect(0)


def test_scheduled_collect_does_not_perturb_virtual_time():
    """Observation queries ride the control channel: the makespan is
    unchanged whether or not snapshots are taken mid-run."""
    spans = []
    for snapshots in (0, 3):
        app = make_pipeline_app(n_messages=30)
        rt = SmpSimRuntime()
        rt.deploy(app)
        rt.start()
        for i in range(snapshots):
            rt.schedule_collect(1_000_000 * (i + 1))
        rt.wait()
        rt.stop()
        spans.append(rt.makespan_ns)
    assert spans[0] == spans[1]


def test_scheduled_collect_reads_the_observers_own_clock():
    # Observer and worker sit on shard 1 of 2 with nothing linking them
    # to shard 0: the snapshot is stamped with the observer's clock, the
    # same instant at every shard count.
    def snapshot(n_shards):
        app = Application("late-snapshot")
        app.create("idle", behavior=lambda ctx: ctx.compute("ns", 10)).place(core=0)
        app.create("worker", behavior=lambda ctx: ctx.compute("ns", 5_000_000)).place(core=15)
        app.attach_observer()
        app.observer.place(core=14)
        rt = ShardedSmpSimRuntime(n_shards)
        rt.deploy(app)
        rt.start()
        handle = rt.schedule_collect(1_000_000, plan=[("worker", APPLICATION_LEVEL)])
        rt.wait()
        rt.stop()
        return handle.result

    one = snapshot(1)
    assert one[0] == 1_002_728
    assert snapshot(2) == one


def test_queue_depth_observation():
    """The middleware level exposes live inbound queue depths -- the
    backlog signal adaptation controllers key on."""
    from repro.core import MIDDLEWARE_LEVEL

    app = make_pipeline_app(n_messages=20)

    def slow_consumer(ctx):
        n = 0
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == "control":
                return n
            yield from ctx.compute("ns", 10_000_000)
            n += 1

    app.components["cons"]._behavior_fn = slow_consumer
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    mid = rt.schedule_collect(30_000_000, plan=[("cons", MIDDLEWARE_LEVEL)])
    rt.wait()
    final = rt.collect(plan=[("cons", MIDDLEWARE_LEVEL)])
    rt.stop()
    _, mid_reports = mid.result
    assert mid_reports[("cons", MIDDLEWARE_LEVEL)]["queue_depths"]["in"] > 0
    assert final[("cons", MIDDLEWARE_LEVEL)]["queue_depths"]["in"] == 0
