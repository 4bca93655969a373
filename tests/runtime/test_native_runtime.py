"""Tests for the native (real threads) runtime."""

import numpy as np
import pytest

from repro.core import APPLICATION_LEVEL, Application, MIDDLEWARE_LEVEL, OS_LEVEL
from repro.runtime import NativeRuntime
from repro.runtime.base import RuntimeError_
from repro.runtime.native import drive

from tests.runtime.conftest import make_pipeline_app


def run_pipeline(app=None):
    app = app or make_pipeline_app()
    rt = NativeRuntime()
    rt.run(app)
    return rt, app


def test_pipeline_completes_with_real_threads():
    rt, app = run_pipeline()
    assert rt.makespan_ns > 0
    rt.stop()


def test_counters_identical_to_simulated_runtimes():
    rt, app = run_pipeline()
    reports = rt.collect()
    rt.stop()
    assert reports[("prod", APPLICATION_LEVEL)]["sends"] == 5
    assert reports[("cons", APPLICATION_LEVEL)]["receives"] == 5
    assert reports[("cons", APPLICATION_LEVEL)]["sends"] == 0


def test_os_report_has_real_times_and_model_memory():
    rt, app = run_pipeline()
    reports = rt.collect()
    rt.stop()
    os_report = reports[("prod", OS_LEVEL)]
    assert os_report["exec_time_us"] > 0
    assert os_report["memory_kb"] == 8392.0  # attribute semantics
    assert "cpu_time_us" in os_report


def test_middleware_timers_record_real_durations():
    rt, app = run_pipeline()
    reports = rt.collect()
    rt.stop()
    send = reports[("prod", MIDDLEWARE_LEVEL)]["send"]
    assert send["count"] == 6  # 5 data + 1 eos control
    assert send["mean_ns"] > 0


def test_payload_copied_on_send():
    """Mailbox copy semantics: mutating the source after send must not
    affect the received message."""
    app = Application("copysem")
    src = np.ones(64, dtype=np.uint8)
    received = []

    def producer(ctx):
        yield from ctx.send("out", src)
        src[:] = 0  # mutate after send

    def consumer(ctx):
        msg = yield from ctx.receive("in")
        received.append(msg.payload.copy())

    app.create("p", behavior=producer, requires=["out"])
    app.create("c", behavior=consumer, provides=["in"])
    app.connect("p", "out", "c", "in")
    rt = NativeRuntime()
    rt.run(app)
    rt.stop()
    assert received[0].min() == 1


def test_component_exception_reported():
    app = Application("boom")

    def bad(ctx):
        yield from ctx.compute("x", 1)
        raise ValueError("native bug")

    app.create("c", behavior=bad)
    rt = NativeRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError_, match="native bug"):
        rt.wait()
    rt.stop()


def test_receive_timeout_surfaces_deadlock():
    app = Application("dead")

    def starved(ctx):
        yield from ctx.receive("in")

    app.create("c", behavior=starved, provides=["in"])
    rt = NativeRuntime(receive_timeout_s=0.2, join_timeout_s=2.0)
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError_, match="timed out"):
        rt.wait()


def test_drive_rejects_raw_sim_commands():
    from repro.sim.process import Timeout

    def bad_behavior():
        yield Timeout(10)

    with pytest.raises(RuntimeError_, match="yielded"):
        drive(bad_behavior())


def test_parallel_speedup_with_threads():
    """Independent receive waits overlap: total wall time is far less
    than the sum of the consumers' blocking windows."""
    import time

    app = Application("par")
    t_sleep = 0.05

    def waiter(ctx):
        time.sleep(t_sleep)
        return None
        yield  # pragma: no cover

    for i in range(4):
        app.create(f"w{i}", behavior=waiter)
    rt = NativeRuntime()
    t0 = time.perf_counter()
    rt.run(app)
    elapsed = time.perf_counter() - t0
    rt.stop()
    assert elapsed < 4 * t_sleep * 0.9
