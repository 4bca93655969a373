"""Producer-sized messages carry the size the payload walk would give.

The MJPEG producers (Fetch, IDCT, Fetch-Reorder) pass ``size_bytes``
from :func:`~repro.mjpeg.components.batch_message_bytes` instead of
letting :class:`~repro.core.Message` walk the payload.  The size sets
the memcpy cost, so a size that drifts from ``payload_nbytes`` would
move every makespan.  These tests decode on both assemblies -- Fetch,
IDCT, Reorder and Fetch-Reorder all send or deposit data -- and compare
every data message against the walk.
"""

from itertools import product
from sys import getsizeof

import numpy as np
import pytest

import repro.core.messages
from repro.core import payload_nbytes
from repro.core.messages import DATA, MESSAGE_HEADER_BYTES
from repro.mjpeg import generate_stream
from repro.mjpeg.components import (
    batch_message_bytes,
    build_smp_assembly,
    build_sti7200_assembly,
)
from repro.runtime import SmpSimRuntime, Sti7200SimRuntime

INTS = (0, 1, 2**30)

ASSEMBLIES = {
    "smp": (
        build_smp_assembly, SmpSimRuntime,
        {("Fetch", "batch"), ("IDCT_1", "pixels"), ("IDCT_2", "pixels"),
         ("IDCT_3", "pixels"), ("Reorder", "frame")},
    ),
    "sti7200": (
        build_sti7200_assembly, Sti7200SimRuntime,
        {("Fetch-Reorder", "batch"), ("IDCT_1", "pixels"), ("IDCT_2", "pixels"),
         ("Fetch-Reorder", "frame")},
    ),
}


def test_int_sizes_differ_across_the_probed_values():
    """The probe values cross a ``getsizeof`` step on this interpreter."""
    assert len({getsizeof(v) for v in INTS}) >= 2


@pytest.mark.parametrize("frame,batch", list(product(INTS, repeat=2)))
@pytest.mark.parametrize(
    "key,data",
    [
        ("coefs", np.zeros((8, 64), dtype=np.float32)),
        ("pixels", np.zeros((8, 8, 8), dtype=np.uint8)),
        ("pixels", np.zeros((0, 64), dtype=np.float64)),
    ],
)
def test_helper_equals_the_payload_walk(frame, batch, key, data):
    payload = {"frame": frame, "batch": batch, key: data}
    assert batch_message_bytes(frame, batch, key, data) == (
        payload_nbytes(payload) + MESSAGE_HEADER_BYTES
    )


@pytest.mark.parametrize("assembly", sorted(ASSEMBLIES))
def test_every_data_message_is_sized_as_the_walk_would(assembly, monkeypatch):
    build, runtime_cls, producers = ASSEMBLIES[assembly]
    sent = []
    transfer = runtime_cls._transfer

    def recording(self, src, target, message):
        sent.append((src.name, message))
        return transfer(self, src, target, message)

    walk = repro.core.messages.payload_nbytes

    def no_dict_walk(payload):
        assert type(payload) is not dict, "a batch payload was walked"
        return walk(payload)

    with monkeypatch.context() as patch:
        patch.setattr(runtime_cls, "_transfer", recording)
        patch.setattr(repro.core.messages, "payload_nbytes", no_dict_walk)
        runtime_cls().run(build(generate_stream(4, 96, 96, quality=75, seed=1)))

    data = [(name, m) for name, m in sent if m.kind == DATA]
    assert {(name, m.tag) for name, m in data} == producers
    for name, m in data:
        assert m.size_bytes == payload_nbytes(m.payload) + MESSAGE_HEADER_BYTES, (name, m.tag)
