"""``EncodedFrame`` keeps its quantized coefficients sparsely: the flat
positions and int16 values of the nonzero entries.  ``qcoefs_zz``
rebuilds the dense array, which must equal the encoder's coefficients
and the bit walk's exactly."""

import numpy as np
import pytest

from repro.mjpeg import generate_stream, synthetic_frame
from repro.mjpeg.components import build_smp_assembly, frames_digest
from repro.mjpeg.dct import fdct_blocks
from repro.mjpeg.decoder import decode_frame_bits
from repro.mjpeg.encoder import encode_image, image_to_blocks
from repro.mjpeg.quant import quant_table, quantize
from repro.mjpeg.zigzag import zigzag
from repro.runtime import SmpSimRuntime


def dense_reference(image, quality):
    """The encoder's quantized zigzag coefficients, as int16."""
    blocks = image_to_blocks(image).astype(np.float64) - 128.0
    return zigzag(quantize(fdct_blocks(blocks), quant_table(quality))).astype(np.int16)


def assert_round_trip(frame, image, quality):
    dense = frame.qcoefs_zz
    assert dense.dtype == np.int16
    assert dense.shape == (frame.n_blocks, 64)
    np.testing.assert_array_equal(dense, dense_reference(image, quality))
    np.testing.assert_array_equal(dense, decode_frame_bits(frame.payload, frame.n_blocks))
    assert frame.nz_value.dtype == np.int16
    assert frame.nz_index.size == np.count_nonzero(dense)


@pytest.mark.parametrize("quality", [10, 50, 75, 100])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_stored_coefficients_round_trip(seed, quality):
    rng = np.random.default_rng(seed)
    for i in range(3):
        image = synthetic_frame(i, 96, 96, rng)
        frame = encode_image(image, quality=quality)
        assert frame.nz_index.dtype == np.uint16
        assert_round_trip(frame, image, quality)


def test_large_frame_zero_block_and_wide_value():
    # 264 x 256 = 1 056 blocks: flat positions pass 2^16, so uint32.
    # Block 0 is flat mid-grey (all zero); block 1 is white, whose DC at
    # quality 100 is (255 - 128) * 8 = 1016, far past int8.
    rng = np.random.default_rng(3)
    image = rng.integers(0, 256, (264, 256), dtype=np.uint8)
    image[:8, :8] = 128
    image[:8, 8:16] = 255
    frame = encode_image(image, quality=100)
    assert frame.n_blocks == 1056
    assert frame.nz_index.dtype == np.uint32
    assert_round_trip(frame, image, 100)
    dense = frame.qcoefs_zz
    assert not dense[0].any()
    assert dense[1, 0] == 1016
    assert int(frame.nz_index.max()) >= 1 << 16


def test_dense_view_is_read_only():
    frame = generate_stream(1, 48, 48, seed=1)[0].frame
    with pytest.raises(ValueError):
        frame.qcoefs_zz[0, 0] = 1


def test_stored_path_digest_equals_the_bit_walk():
    stream = generate_stream(6, 96, 96, quality=75, seed=1)
    digests = set()
    for stored in (False, True):
        app = build_smp_assembly(stream, use_stored_coefficients=stored, keep_frames=True)
        rt = SmpSimRuntime()
        rt.deploy(app)
        rt.start()
        rt.wait()
        rt.collect()
        rt.stop()
        digests.add(frames_digest(app.components["Reorder"].frames))
    assert len(digests) == 1
