"""Encoder/decoder integration tests and stream generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mjpeg import decode_image, encode_image, generate_stream, synthetic_frame
from repro.mjpeg.decoder import (
    DecodeError,
    assemble_image,
    coefficients_from_qzz,
    decode_frame_bits,
    decode_frame_coefficients,
    idct_stage,
    split_blocks,
)
from repro.mjpeg.encoder import blocks_to_image, image_to_blocks
from repro.mjpeg.quant import quant_table
from repro.mjpeg.zigzag import zigzag


def test_image_block_roundtrip():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (32, 48), dtype=np.uint8)
    blocks = image_to_blocks(img)
    assert blocks.shape == (24, 8, 8)
    assert np.array_equal(blocks_to_image(blocks, 32, 48), img)


def test_image_to_blocks_requires_multiple_of_8():
    with pytest.raises(ValueError):
        image_to_blocks(np.zeros((10, 16), dtype=np.uint8))


def test_block_raster_order():
    """Block k covers rows 8*(k // (W/8)) and cols 8*(k % (W/8))."""
    img = np.zeros((16, 16), dtype=np.uint8)
    img[0:8, 8:16] = 7  # second block in raster order
    blocks = image_to_blocks(img)
    assert blocks[1].min() == 7
    assert blocks[0].max() == 0


def test_encode_decode_exact_coefficient_recovery():
    """Entropy coding is lossless: decoded quantized coefficients match."""
    img = synthetic_frame(0, 48, 48, np.random.default_rng(4))
    enc = encode_image(img, quality=75)
    zz = decode_frame_bits(enc.payload, enc.n_blocks)
    assert np.array_equal(zz, enc.qcoefs_zz.astype(np.int32))


def test_roundtrip_quality_improves_fidelity():
    img = synthetic_frame(1, 64, 64, np.random.default_rng(0))
    errs = {}
    for q in (25, 75, 95):
        enc = encode_image(img, quality=q)
        dec = decode_image(enc.payload, 64, 64, q)
        errs[q] = float(np.mean(np.abs(dec.astype(int) - img.astype(int))))
    assert errs[95] < errs[75] < errs[25]
    assert errs[95] < 3.0


def test_higher_quality_bigger_payload():
    img = synthetic_frame(2, 64, 64, np.random.default_rng(1))
    assert encode_image(img, 90).n_bits > encode_image(img, 30).n_bits


def test_stored_coefficients_match_bit_decode():
    img = synthetic_frame(3, 48, 48, np.random.default_rng(2))
    enc = encode_image(img, quality=60)
    a = decode_frame_coefficients(enc.payload, enc.n_blocks, 60)
    b = coefficients_from_qzz(enc.qcoefs_zz, 60)
    assert np.array_equal(a, b)


def test_truncated_stream_raises():
    img = synthetic_frame(0, 32, 32, np.random.default_rng(5))
    enc = encode_image(img, quality=75)
    with pytest.raises(DecodeError, match="truncated"):
        decode_frame_bits(enc.payload[: len(enc.payload) // 4], enc.n_blocks)


def test_flat_image_compresses_to_dc_only():
    img = np.full((16, 16), 128, dtype=np.uint8)
    enc = encode_image(img, quality=75)
    # 4 blocks of (DC cat 0 + EOB): tiny payload
    assert enc.n_bits <= 4 * (2 + 4) + 8
    dec = decode_image(enc.payload, 16, 16, 75)
    assert np.array_equal(dec, img)


def test_encoder_requires_uint8():
    with pytest.raises(ValueError, match="uint8"):
        encode_image(np.zeros((8, 8), dtype=np.float64))


@settings(max_examples=10, deadline=None)
@given(hnp.arrays(np.uint8, (16, 16), elements=st.integers(0, 255)))
def test_roundtrip_error_bounded_property(img):
    """Reconstruction error is bounded by the quantization step budget."""
    enc = encode_image(img, quality=90)
    dec = decode_image(enc.payload, 16, 16, 90)
    # q90 table max step is small; allow a conservative bound
    assert np.abs(dec.astype(int) - img.astype(int)).max() <= 64


# -- pipeline stage functions --------------------------------------------------------


def test_split_blocks_partition():
    blocks = np.arange(144 * 64).reshape(144, 8, 8)
    batches = split_blocks(blocks, 18)
    assert len(batches) == 18
    assert all(len(b) == 8 for b in batches)
    assert np.array_equal(np.concatenate(batches), blocks)


def test_split_blocks_uneven():
    blocks = np.zeros((10, 8, 8))
    batches = split_blocks(blocks, 3)
    sizes = [len(b) for b in batches]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1
    assert min(sizes) >= 1


def test_split_blocks_validation():
    with pytest.raises(ValueError):
        split_blocks(np.zeros((4, 8, 8)), 5)
    with pytest.raises(ValueError):
        split_blocks(np.zeros((4, 8, 8)), 0)


def test_stage_functions_compose_to_reference_decode():
    img = synthetic_frame(5, 48, 48, np.random.default_rng(3))
    enc = encode_image(img, quality=80)
    coefs = decode_frame_coefficients(enc.payload, enc.n_blocks, 80)
    batches = split_blocks(coefs, 6)
    pixel_batches = [idct_stage(b) for b in batches]
    out = assemble_image(pixel_batches, 48, 48)
    assert np.array_equal(out, decode_image(enc.payload, 48, 48, 80))


# -- streams ----------------------------------------------------------------------------


def test_generate_stream_geometry():
    s = generate_stream(5, 96, 96, quality=75, seed=1)
    assert len(s) == 5
    assert s.n_blocks_per_frame == 144
    assert all(r.index == i for i, r in enumerate(s))


def test_stream_deterministic_by_seed():
    a = generate_stream(3, 48, 48, seed=7)
    b = generate_stream(3, 48, 48, seed=7)
    assert all(x.frame.payload == y.frame.payload for x, y in zip(a, b))
    c = generate_stream(3, 48, 48, seed=8)
    assert any(x.frame.payload != y.frame.payload for x, y in zip(a, c))


def test_stream_frames_differ_over_time():
    s = generate_stream(3, 48, 48, seed=0)
    assert s[0].frame.payload != s[1].frame.payload


def test_stream_validation():
    with pytest.raises(ValueError):
        generate_stream(0)
