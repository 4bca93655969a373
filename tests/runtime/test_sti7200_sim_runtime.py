"""Tests for the simulated OS21/STi7200 runtime."""

import pytest

from repro.core import APPLICATION_LEVEL, Application, MIDDLEWARE_LEVEL, OS_LEVEL
from repro.runtime import Sti7200SimRuntime
from repro.runtime.base import RuntimeError_

from tests.runtime.conftest import make_pipeline_app


def place_pipeline(app):
    app.components["prod"].place(cpu=0)
    app.components["cons"].place(cpu=1)
    return app


def run_pipeline(app=None):
    app = place_pipeline(app or make_pipeline_app())
    rt = Sti7200SimRuntime()
    rt.run(app)
    return rt, app


def test_pipeline_completes():
    rt, app = run_pipeline()
    assert rt.makespan_ns > 0


def test_missing_cpu_placement_rejected():
    app = make_pipeline_app()
    rt = Sti7200SimRuntime()
    with pytest.raises(RuntimeError_, match="cpu placement"):
        rt.deploy(app)


def test_one_component_per_cpu_enforced():
    app = make_pipeline_app()
    app.components["prod"].place(cpu=1)
    app.components["cons"].place(cpu=1)
    rt = Sti7200SimRuntime()
    with pytest.raises(RuntimeError_, match="one component per CPU"):
        rt.deploy(app)


def test_one_component_per_cpu_relaxable():
    app = make_pipeline_app()
    app.components["prod"].place(cpu=1)
    app.components["cons"].place(cpu=1)
    rt = Sti7200SimRuntime(enforce_one_component_per_cpu=False)
    rt.run(app)


def test_invalid_cpu_rejected():
    app = make_pipeline_app()
    app.components["prod"].place(cpu=0)
    app.components["cons"].place(cpu=17)
    rt = Sti7200SimRuntime()
    with pytest.raises(RuntimeError_, match="no cpu"):
        rt.deploy(app)


def test_os_report_task_time_and_memory():
    rt, app = run_pipeline()
    reports = rt.collect()
    rt.stop()
    prod_os = reports[("prod", OS_LEVEL)]
    cons_os = reports[("cons", OS_LEVEL)]
    # prod has no functional provided interface: bare 60 kB task
    assert prod_os["memory_kb"] == 60.0
    # cons provides one interface: 60 + 25 kB distributed object
    assert cons_os["memory_kb"] == 85.0
    assert prod_os["exec_time_us"] > 0


def test_task_time_is_cpu_time():
    """A blocked consumer's exec_time (task_time) is far below makespan."""
    app = place_pipeline(make_pipeline_app(n_messages=3))

    def lazy_consumer(ctx):
        n = 0
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == "control":
                return n
            n += 1

    app.components["cons"]._behavior_fn = lazy_consumer
    rt = Sti7200SimRuntime()
    rt.run(app)
    reports = rt.collect()
    rt.stop()
    cons_cpu_us = reports[("cons", OS_LEVEL)]["exec_time_us"]
    assert cons_cpu_us * 1_000 < rt.makespan_ns / 2


def test_distributed_objects_allocated_in_sdram():
    app = place_pipeline(make_pipeline_app())
    rt = Sti7200SimRuntime()
    rt.deploy(app)
    allocations = rt.platform.region("sdram")._allocations.values()
    assert sum(n for label, n in allocations if label == "embx:cons.in") == 25 * 1024


def test_send_cost_exceeds_smp_equivalent():
    """The STi7200 send path is orders of magnitude slower than the SMP's
    (compare Figure 8 in ms vs Figure 4 in us)."""
    from repro.runtime import SmpSimRuntime

    means = {}
    for tag, rt, app in (
        ("smp", SmpSimRuntime(), make_pipeline_app(payload_bytes=25_000)),
        ("sti", Sti7200SimRuntime(), place_pipeline(make_pipeline_app(payload_bytes=25_000))),
    ):
        rt.run(app)
        reports = rt.collect()
        rt.stop()
        means[tag] = reports[("prod", MIDDLEWARE_LEVEL)]["send"]["mean_ns"]
    assert means["sti"] > 20 * means["smp"]


def test_counters_match_on_both_platforms():
    rt, app = run_pipeline()
    reports = rt.collect()
    rt.stop()
    assert reports[("prod", APPLICATION_LEVEL)]["sends"] == 5
    assert reports[("cons", APPLICATION_LEVEL)]["receives"] == 5


def test_local_clocks_differ_between_cpus():
    rt, app = run_pipeline()
    offsets = {rt.containers[n].context.clock_offset_ns for n in ("prod", "cons")}
    assert len(offsets) == 2


def test_deterministic_across_runs():
    spans = []
    for _ in range(2):
        rt, _ = run_pipeline(make_pipeline_app())
        spans.append(rt.makespan_ns)
    assert spans[0] == spans[1]


def test_interrupts_in_os_report():
    """The OS-level report exposes interrupts raised on each task's CPU."""
    rt, app = run_pipeline()
    reports = rt.collect()
    rt.stop()
    # cons (cpu 1) owns the distributed object: 6 sends -> 6 interrupts
    assert reports[("cons", OS_LEVEL)]["interrupts"] == 6
    assert reports[("prod", OS_LEVEL)]["interrupts"] == 0
