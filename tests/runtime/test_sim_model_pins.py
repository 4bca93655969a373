"""Pinned model statistics of the three simulated MJPEG runtimes.

An 8-image seed-1 decode on each runtime must reproduce the makespan,
the decoded frame set and the observer's reports exactly.  The literals
were computed with the generator-based CPU dispatcher (one dispatcher
process per core, one timer and one event per compute slice), so they
hold the inline-slice dispatcher to the same schedule.
"""

import hashlib
import json

import pytest

from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly, frames_digest
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime, Sti7200SimRuntime

FRAMES = "b63a9383ad15badbe30d3b1d8fd74bf9c5dd040bc923e4a4d5a21b74e39b287d"

PINS = {
    "smp": (
        SmpSimRuntime,
        71_536_721,
        "b22b33a0eea2217d4ad32868c66cc8cfd8b6308232b6fa4f0889d97b141ca275",
    ),
    "sti7200": (
        Sti7200SimRuntime,
        15_792_532_910,
        "fcbf45d2fee3a4a5c1da9e47d666bb3ac622ec759f23a913388a3dcf871c3746",
    ),
    "sharded4": (
        lambda: ShardedSmpSimRuntime(4),
        71_617_053,
        "3d6d95bff416ae2e426f8ead49562832d23f2aa5523fc06b47f7acd638f0d0ed",
    ),
}


def reports_digest(reports):
    canonical = {f"{name}/{level}": report for (name, level), report in reports.items()}
    return hashlib.sha256(json.dumps(canonical, sort_keys=True, default=str).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_eight_image_decode_matches_pinned_model(name):
    make, makespan, reports = PINS[name]
    stream = generate_stream(8, 96, 96, quality=75, seed=1)
    frames = {}
    if name == "sti7200":
        app = build_sti7200_assembly(stream, keep_frames=True)
    else:
        app = build_smp_assembly(stream, frame_sink=frames.__setitem__)
    rt = make()
    rt.deploy(app)
    rt.start()
    rt.wait()
    got_reports = rt.collect()
    rt.stop()
    if name == "sti7200":
        frames = app.components["Fetch-Reorder"].frames
    assert rt.makespan_ns == makespan
    assert frames_digest(frames) == FRAMES
    assert reports_digest(got_reports) == reports
