"""Pinned telemetry digests of the simulated runtimes and the chaos campaign.

``metrics_digest`` covers every counter, histogram and the windowed
delta series, so these literals hold the window cut itself fixed: each
write must land in the same window, and every window must carry the
same deltas, however and whenever the series is cut.  It skips gauges,
so the decodes also pin the sha256 of the whole registry document
(``registry_payload`` as canonical JSON): the ``busy_ns`` and
``queue_depth`` gauges every runtime stamps, and the STi7200's
``embx_*`` gauges.
"""

import hashlib
import json

import pytest

from repro.faults.campaign import run_chaos_campaign
from repro.metrics import collect_telemetry, enable_telemetry
from repro.metrics.export import metrics_digest, registry_payload
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime, Sti7200SimRuntime

DECODE_PINS = {
    "smp": (SmpSimRuntime, "94f6eb40ab3afa96eae345abdb2aaf9a1015b0ef4c6e2348d36cfdee36f6f33a"),
    "sti7200": (
        Sti7200SimRuntime,
        "4898924b8ade7e33fa3db1d35a9c07e09dc1bb4776036268974cac5607c6632a",
    ),
    "sharded4": (
        lambda: ShardedSmpSimRuntime(4),
        "dc9a04feb044582f186142fc43dd468740bb87233eb35bd5895b7e240e37f504",
    ),
}

PAYLOAD_PINS = {
    "smp": "bbe1153d069d4de1e353ca0d0b903cce949241534d66702ed61d91993ae3f8b5",
    "sti7200": "bb24c8757dfcbb8aea0c3cd5f330cdd45be0b05b86e89254bdda084ea2087336",
}

CAMPAIGN_PINS = {
    (1, False): "c6c0ac3beee695f62212516ffdd5824aefc9b73b698465518ab799a952ce8ba9",
    (1, True): "8e31a28f4747429ebc8d4c57f85e49980d0b1db124a362510b4863dbdf53f58d",
    (7, False): "4eea7cb0b83b1b895c314bf691521a09b3ce17cfea8b9c5d21aa6178289f64d8",
    (7, True): "9f08738ebef1aa9ca082fa561302efbc4659c72bd0df57f6e7da09ef9a8cff9e",
    (42, False): "408b237ec3490d9aa6ee98e05eb1c48bc6434d2369dc4ba8c870d212f2f7d829",
    (42, True): "f5b5db89ac0e99415dcc591052c1787716d9ee0e9812d2ff6510a37fd1d649f2",
}


def _eight_image_decode(name):
    make = DECODE_PINS[name][0]
    stream = generate_stream(8, 96, 96, quality=75, seed=1)
    if name == "sti7200":
        app = build_sti7200_assembly(stream, keep_frames=True)
    else:
        app = build_smp_assembly(stream)
    rt = make()
    rt.deploy(app)
    enable_telemetry(rt)
    rt.start()
    rt.wait()
    registry = collect_telemetry(rt)
    rt.stop()
    return registry


@pytest.mark.parametrize("name", sorted(DECODE_PINS))
def test_eight_image_decode_metrics_digest(name):
    registry = _eight_image_decode(name)
    assert registry.windows
    assert metrics_digest(registry) == DECODE_PINS[name][1]


@pytest.mark.parametrize("name", sorted(PAYLOAD_PINS))
def test_eight_image_decode_registry_document(name):
    registry = _eight_image_decode(name)
    gauges = {e[1] for e in registry.instruments() if e[0] == "gauge"}
    assert {"busy_ns", "queue_depth"} <= gauges
    blob = json.dumps(registry_payload(registry), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == PAYLOAD_PINS[name]


@pytest.mark.parametrize("seed,recover", sorted(CAMPAIGN_PINS))
def test_chaos_campaign_metrics_digest(seed, recover):
    result = run_chaos_campaign(seed, n_images=8, recover=recover)
    assert metrics_digest(result.metrics) == CAMPAIGN_PINS[seed, recover]
