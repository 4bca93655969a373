"""Ablation A13 -- the entropy encoder: per-symbol writes vs whole-plane arrays.

``repro.mjpeg.encoder.encode_plane`` builds one ``(value, length)``
token per Huffman code of a plane, packs the tokens into 32-bit words
with one ``np.bincount`` and hands the plane to the ``BitWriter`` as one
wide write.  Its simplest alternative is the per-symbol loop kept as
the test reference (``tests/mjpeg/scalar_encoder.py``): one
``BitWriter.write`` per code and per magnitude, about 3 300 per 96x96
frame.  This bench times both per 144-block plane (one 96x96 frame) of
the synthetic stream at quality 75, the stream every workload uses, and
at quality 95, whose denser planes carry more symbols.

Both encoders are asserted byte-identical on the timed planes, so the
only thing that differs is host cost.
"""

import timeit

from repro.metrics import Table
from repro.mjpeg import generate_stream
from repro.mjpeg.bitio import BitWriter
from repro.mjpeg.encoder import encode_plane

from benchmarks.conftest import save_result
from tests.mjpeg.scalar_encoder import encode_plane_reference

QUALITIES = (75, 95)
N_PLANES = 16
REPEAT = 5

VARIANTS = {
    "per-symbol writes": encode_plane_reference,
    "whole-plane arrays": encode_plane,
}


def encode_all(fn, planes):
    for qzz in planes:
        writer = BitWriter()
        fn(writer, qzz)
    return writer


def run_ablation():
    results = {}
    for quality in QUALITIES:
        stream = generate_stream(N_PLANES, 96, 96, quality, seed=1)
        planes = [r.frame.qcoefs_zz for r in stream]
        for qzz in planes:
            outputs = []
            for fn in VARIANTS.values():
                writer = BitWriter()
                fn(writer, qzz)
                outputs.append((writer.getvalue(), writer.bits_written))
            assert outputs[0] == outputs[1]
        row = {"bits/plane": sum(r.n_bits for r in stream) // N_PLANES}
        for name, fn in VARIANTS.items():
            best = min(timeit.repeat(lambda: encode_all(fn, planes), number=1, repeat=REPEAT))
            row[name] = best / N_PLANES * 1e6
        results[quality] = row
    return results


def test_entropy_encode_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    table = Table(
        ["Quality", "Bits/plane"] + [f"{name} (us/plane)" for name in VARIANTS] + ["Speedup"],
        title=(
            f"Ablation A13: entropy encode cost per 144-block plane "
            f"(best of {REPEAT} x {N_PLANES} planes)"
        ),
    )
    for quality, row in results.items():
        scalar, vector = (row[name] for name in VARIANTS)
        table.add_row(
            [quality, row["bits/plane"], round(scalar, 1), round(vector, 1), round(scalar / vector, 2)]
        )
    save_result("ablation_entropy_encode", table.render())

    # The whole-plane kernel beats the per-symbol loop at both densities.
    for row in results.values():
        scalar, vector = (row[name] for name in VARIANTS)
        assert vector < scalar, row
