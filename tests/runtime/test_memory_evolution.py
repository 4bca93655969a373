"""Tests for the per-component heap / memory-evolution extension."""

import pytest

from repro.core import Application, OS_LEVEL
from repro.hw.memory import AllocationError
from repro.runtime import NativeRuntime, ShardedSmpSimRuntime, SmpSimRuntime, Sti7200SimRuntime
from repro.runtime.base import RuntimeError_


def alloc_app(sizes=(10_000, 50_000, 20_000)):
    app = Application("heapy")

    def worker(ctx):
        handles = []
        for n in sizes:
            handles.append((yield from ctx.alloc(n, label="buf")))
        yield from ctx.free(handles[1])  # free the middle allocation
        yield from ctx.compute("ns", 1000)

    app.create("worker", behavior=worker)
    app.attach_observer()
    return app


@pytest.mark.parametrize("runtime_cls", [SmpSimRuntime, NativeRuntime])
def test_heap_observation_any_runtime(runtime_cls):
    app = alloc_app()
    if runtime_cls is Sti7200SimRuntime:
        app.components["worker"].place(cpu=1)
    rt = runtime_cls()
    rt.run(app)
    reports = rt.collect()
    rt.stop()
    os_r = reports[("worker", OS_LEVEL)]
    assert os_r["heap_bytes"] == 10_000 + 20_000
    assert os_r["heap_peak_bytes"] == 80_000
    timeline = os_r["heap_timeline"]
    assert [b for (_, b) in timeline] == [10_000, 60_000, 80_000, 30_000]
    # timestamps non-decreasing
    times = [t for (t, _) in timeline]
    assert times == sorted(times)


def test_heap_charged_to_numa_node_on_smp():
    app = alloc_app()
    app.components["worker"].place(core=4)  # node 2
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    rt.wait()
    region = rt.system.node_region(2)
    assert region.usage_by_label().get("worker:buf") == 30_000
    rt.stop()


@pytest.mark.parametrize(
    "make_runtime",
    [SmpSimRuntime, lambda: ShardedSmpSimRuntime(1), lambda: ShardedSmpSimRuntime(2)],
    ids=["smp", "sharded1", "sharded2"],
)
def test_heap_timeline_reads_the_allocators_own_clock(make_runtime):
    # The allocator sits on core 15 (shard 1 of 2) with nothing linking
    # it to shard 0: its allocation is stamped at its own clock, the
    # same instant at every shard count.
    app = Application("late-alloc")

    def worker(ctx):
        yield from ctx.compute("ns", 5_000_000)
        yield from ctx.alloc(1000, label="late")

    app.create("idle", behavior=lambda ctx: ctx.compute("ns", 10)).place(core=0)
    app.create("worker", behavior=worker).place(core=15)
    rt = make_runtime()
    rt.run(app)
    rt.stop()
    assert rt.platform.region("node7").timeline() == [(5_000_682, 1000)]


def test_heap_in_local_sram_on_sti7200_and_exhaustion():
    """ST231 tasks allocate from their 1 MB SRAM; oversubscription fails
    with a real allocation error, as on the part."""
    app = Application("sram")

    def greedy(ctx):
        yield from ctx.alloc(900 * 1024)
        yield from ctx.alloc(900 * 1024)  # exceeds the 1 MB local SRAM

    app.create("greedy", behavior=greedy).place(cpu=1)
    rt = Sti7200SimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(AllocationError, match="exhausted"):
        rt.wait()


def test_double_free_reported():
    app = Application("dfree")

    def bad(ctx):
        h = yield from ctx.alloc(100)
        yield from ctx.free(h)
        yield from ctx.free(h)

    app.create("bad", behavior=bad)
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError_, match="unknown heap handle"):
        rt.wait()


def test_negative_alloc_rejected():
    app = Application("neg")

    def bad(ctx):
        yield from ctx.alloc(-1)

    app.create("bad", behavior=bad)
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(ValueError, match="negative allocation"):
        rt.wait()


def test_heap_absent_from_report_when_unused():
    from tests.runtime.conftest import make_pipeline_app

    rt = SmpSimRuntime()
    rt.run(make_pipeline_app())
    reports = rt.collect()
    rt.stop()
    assert "heap_timeline" not in reports[("prod", OS_LEVEL)]
