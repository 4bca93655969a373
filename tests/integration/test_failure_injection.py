"""Failure injection: how the system behaves when components misbehave."""

import numpy as np
import pytest

from repro.core import Application, CONTROL
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly
from repro.mjpeg.decoder import DecodeError
from repro.runtime import NativeRuntime, SmpSimRuntime
from repro.runtime.base import RuntimeError_


def crashing_idct_app(stream, crash_after):
    """An MJPEG assembly whose IDCT_2 dies after N batches."""
    app = build_smp_assembly(stream)
    idct2 = app.components["IDCT_2"]
    original = idct2.behavior

    def faulty(ctx):
        count = 0
        while True:
            msg = yield from ctx.receive("_fetchIdct2")
            if msg.kind == CONTROL:
                return
            count += 1
            if count > crash_after:
                raise RuntimeError("injected IDCT fault")
            from repro.mjpeg.decoder import idct_stage

            batch = msg.payload
            pixels = idct_stage(batch["coefs"])
            yield from ctx.compute("idct_block", pixels.shape[0])
            yield from ctx.send(
                "idctReorder",
                {"frame": batch["frame"], "batch": batch["batch"], "pixels": pixels},
            )

    idct2._behavior_fn = faulty
    idct2.behavior = lambda ctx: faulty(ctx)
    return app


def test_sim_component_crash_surfaces_original_exception():
    stream = generate_stream(6, 96, 96, seed=0)
    app = crashing_idct_app(stream, crash_after=3)
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError, match="injected IDCT fault"):
        rt.wait()


def test_native_component_crash_reported_with_component_name():
    stream = generate_stream(4, 96, 96, seed=0)
    app = crashing_idct_app(stream, crash_after=2)
    rt = NativeRuntime(receive_timeout_s=2.0, join_timeout_s=10.0)
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError_) as err:
        rt.wait()
    assert "IDCT_2" in str(err.value) or "injected" in str(err.value)


def test_corrupted_bitstream_fails_loudly_not_silently():
    stream = generate_stream(4, 96, 96, seed=1)
    # truncate the payload of frame 2
    rec = stream[2]
    rec.frame.payload = rec.frame.payload[: len(rec.frame.payload) // 3]
    app = build_smp_assembly(stream)
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(DecodeError):
        rt.wait()


def test_missing_eos_reports_stuck_components():
    """A producer that forgets end-of-stream leaves consumers blocked;
    the runtime names them instead of hanging or lying."""
    app = Application("noeos")

    def producer(ctx):
        yield from ctx.send("out", b"only one")

    def consumer(ctx):
        while True:
            yield from ctx.receive("in")

    app.create("p", behavior=producer, requires=["out"])
    app.create("c", behavior=consumer, provides=["in"])
    app.connect("p", "out", "c", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError_, match="c"):
        rt.wait()


def test_reorder_detects_incomplete_frames():
    """If an IDCT drops a batch, Reorder raises on shutdown instead of
    silently emitting fewer frames."""
    stream = generate_stream(4, 96, 96, seed=2)
    app = build_smp_assembly(stream)
    idct1 = app.components["IDCT_1"]

    def dropping(ctx):
        from repro.mjpeg.decoder import idct_stage

        dropped = False
        while True:
            msg = yield from ctx.receive("_fetchIdct1")
            if msg.kind == CONTROL:
                yield from ctx.send("idctReorder", None, kind=CONTROL, tag="eos")
                return
            if not dropped:
                dropped = True
                continue  # swallow one batch
            batch = msg.payload
            pixels = idct_stage(batch["coefs"])
            yield from ctx.send(
                "idctReorder",
                {"frame": batch["frame"], "batch": batch["batch"], "pixels": pixels},
            )

    idct1.behavior = lambda ctx: dropping(ctx)
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError, match="incomplete frame"):
        rt.wait()


def test_observation_survives_component_failure():
    """Counters gathered before a crash remain queryable afterwards."""
    stream = generate_stream(6, 96, 96, seed=3)
    app = crashing_idct_app(stream, crash_after=3)
    rt = SmpSimRuntime()
    rt.deploy(app)
    rt.start()
    with pytest.raises(RuntimeError):
        rt.wait()
    probe = rt.container("IDCT_2").probe
    assert probe.data_receives.value >= 3
    assert probe.report("application")["receives"] >= 3
    assert rt.container("Fetch").probe.data_sends.value > 0
