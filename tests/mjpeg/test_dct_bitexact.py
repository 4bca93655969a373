"""The matmul DCT kernels are bit-identical to the einsum formulation.

The decoder's output contract is a sha256 over decoded frames, so the
transform must not change by a single ulp.  The einsum expressions below
are the formulation the kernels replaced, kept here as the reference;
every comparison is ``np.array_equal``, never ``allclose``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mjpeg import generate_stream
from repro.mjpeg.dct import DCT_MATRIX, fdct_blocks, idct_blocks
from repro.mjpeg.decoder import decode_frame_coefficients, split_blocks
from repro.mjpeg.encoder import image_to_blocks
from repro.mjpeg.stream import synthetic_frame

SEEDS = (1, 7, 42)
N_IMAGES = 8


def einsum_idct(coefs):
    c = DCT_MATRIX
    coefs = np.asarray(coefs, dtype=np.float64)
    return np.einsum("ji,...jk,kl->...il", c, coefs, c, optimize=True)


def einsum_fdct(blocks):
    c = DCT_MATRIX
    blocks = np.asarray(blocks, dtype=np.float64)
    return np.einsum("ij,...jk,lk->...il", c, blocks, c, optimize=True)


def decoded_coefficients(seed):
    stream = generate_stream(N_IMAGES, 96, 96, 75, seed=seed)
    return [
        decode_frame_coefficients(r.frame.payload, r.frame.n_blocks, stream.quality)
        for r in stream
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_idct_bit_exact_on_whole_frames(seed):
    for coefs in decoded_coefficients(seed):
        assert coefs.shape == (144, 8, 8) and coefs.dtype == np.float64
        assert np.array_equal(idct_blocks(coefs), einsum_idct(coefs))


@pytest.mark.parametrize("seed", SEEDS)
def test_idct_bit_exact_on_fetch_batches(seed):
    """The Fetch stage ships float32 (8, 8, 8) batches to the IDCTs."""
    for coefs in decoded_coefficients(seed):
        for batch in split_blocks(coefs.astype(np.float32), 18):
            assert batch.shape == (8, 8, 8) and batch.dtype == np.float32
            assert np.array_equal(idct_blocks(batch), einsum_idct(batch))


@pytest.mark.parametrize("seed", SEEDS)
def test_fdct_bit_exact_on_encoder_blocks(seed):
    rng = np.random.default_rng(seed)
    for i in range(N_IMAGES):
        blocks = image_to_blocks(synthetic_frame(i, 96, 96, rng)).astype(np.float64) - 128.0
        assert np.array_equal(fdct_blocks(blocks), einsum_fdct(blocks))


def test_single_block_bit_exact():
    block = np.random.default_rng(3).uniform(-1024, 1024, (8, 8))
    assert np.array_equal(idct_blocks(block), einsum_idct(block))
    assert np.array_equal(fdct_blocks(block), einsum_fdct(block))


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        st.sampled_from([np.float32, np.float64]),
        st.tuples(st.integers(1, 20), st.just(8), st.just(8)),
        elements=st.floats(-2048, 2048, allow_nan=False, width=32),
    )
)
def test_kernels_bit_exact_property(blocks):
    assert np.array_equal(idct_blocks(blocks), einsum_idct(blocks))
    assert np.array_equal(fdct_blocks(blocks), einsum_fdct(blocks))


#: sha256 of the joined payloads and total ``n_bits`` of
#: ``generate_stream(8, 96, 96, 75, seed)``, as the per-symbol coder wrote them.
PAYLOAD_PINS = {
    1: ("62e469c6cd1a117af2c0a954c717125f6691eca88296e0c78050382631359b8c", 79636),
    7: ("eeb6b66d17f63fda7f4097ebced97a7c081b8e67418799db84e7eb18c8488567", 79594),
    42: ("195d17d41baceeca024f10a0d37fca92942ea646351a9ab9bbcf4e2633026f23", 79797),
}


def test_encoded_payload_unchanged():
    """The encoder runs fdct_blocks and the vectorised entropy coder: its
    bitstream is pinned byte for byte at seeds 1, 7 and 42."""
    for seed, (sha256, n_bits) in PAYLOAD_PINS.items():
        stream = generate_stream(8, 96, 96, 75, seed=seed)
        digest = hashlib.sha256(b"".join(r.frame.payload for r in stream)).hexdigest()
        assert (digest, sum(r.n_bits for r in stream)) == (sha256, n_bits), seed
