"""Unit and property tests for zigzag, quantization and DCT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mjpeg.dct import DCT_MATRIX, fdct_blocks, idct_blocks, pixels_from_idct
from repro.mjpeg.quant import STD_LUMA_QUANT, dequantize, quant_table, quantize
from repro.mjpeg.zigzag import ZIGZAG_ORDER, dezigzag, zigzag


# -- zigzag ---------------------------------------------------------------------


def test_zigzag_order_is_permutation():
    assert sorted(ZIGZAG_ORDER.tolist()) == list(range(64))


def test_zigzag_known_prefix():
    """First entries of the T.81 scan: (0,0),(0,1),(1,0),(2,0),(1,1),(0,2)."""
    assert ZIGZAG_ORDER[:6].tolist() == [0, 1, 8, 16, 9, 2]
    assert ZIGZAG_ORDER[-1] == 63


def test_zigzag_roundtrip_single_block():
    block = np.arange(64).reshape(8, 8)
    assert np.array_equal(dezigzag(zigzag(block)), block)


def test_zigzag_batched():
    blocks = np.arange(3 * 64).reshape(3, 8, 8)
    zz = zigzag(blocks)
    assert zz.shape == (3, 64)
    assert np.array_equal(dezigzag(zz), blocks)


def test_zigzag_shape_validation():
    with pytest.raises(ValueError):
        zigzag(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        dezigzag(np.zeros(63))


@given(hnp.arrays(np.int32, (5, 8, 8), elements=st.integers(-1024, 1024)))
def test_zigzag_roundtrip_property(blocks):
    assert np.array_equal(dezigzag(zigzag(blocks)), blocks)


# -- quantization ------------------------------------------------------------------


def test_quant_table_quality50_is_base():
    assert np.array_equal(quant_table(50), STD_LUMA_QUANT)


def test_quant_table_monotone_in_quality():
    q25, q75, q95 = quant_table(25), quant_table(75), quant_table(95)
    assert (q25 >= q75).all()
    assert (q75 >= q95).all()


def test_quant_table_bounds():
    for q in (1, 10, 50, 90, 100):
        t = quant_table(q)
        assert t.min() >= 1 and t.max() <= 255


def test_quant_table_invalid_quality():
    with pytest.raises(ValueError):
        quant_table(0)
    with pytest.raises(ValueError):
        quant_table(101)


def test_quantize_dequantize_bounded_error():
    rng = np.random.default_rng(0)
    coefs = rng.normal(0, 50, (10, 8, 8))
    table = quant_table(75)
    err = np.abs(dequantize(quantize(coefs, table), table) - coefs)
    assert (err <= table / 2 + 1e-9).all()


# -- DCT ----------------------------------------------------------------------------


def test_dct_matrix_orthonormal():
    assert np.allclose(DCT_MATRIX @ DCT_MATRIX.T, np.eye(8), atol=1e-12)


def test_dct_roundtrip():
    rng = np.random.default_rng(1)
    blocks = rng.uniform(-128, 127, (20, 8, 8))
    assert np.allclose(idct_blocks(fdct_blocks(blocks)), blocks, atol=1e-9)


def test_dct_matches_scipy():
    scipy_fft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(2)
    block = rng.uniform(-128, 127, (8, 8))
    ours = fdct_blocks(block)
    ref = scipy_fft.dctn(block, type=2, norm="ortho")
    assert np.allclose(ours, ref, atol=1e-10)


def test_dct_dc_coefficient_is_scaled_mean():
    block = np.full((8, 8), 100.0)
    coefs = fdct_blocks(block)
    assert coefs[0, 0] == pytest.approx(800.0)  # 8 * mean
    assert np.allclose(coefs.ravel()[1:], 0, atol=1e-9)


def test_pixels_from_idct_clamps():
    samples = np.array([[-500.0, 500.0], [0.0, 1.4]])
    px = pixels_from_idct(samples)
    assert px.dtype == np.uint8
    assert px.tolist() == [[0, 255], [128, 129]]


@settings(max_examples=25)
@given(hnp.arrays(np.float64, (2, 8, 8), elements=st.floats(-128, 127, allow_nan=False)))
def test_dct_energy_preservation_property(blocks):
    """Orthonormal transform: Parseval's theorem holds per block."""
    coefs = fdct_blocks(blocks)
    assert np.allclose(
        (coefs**2).sum(axis=(-2, -1)), (blocks**2).sum(axis=(-2, -1)), rtol=1e-9, atol=1e-6
    )


def test_dct_shape_validation():
    with pytest.raises(ValueError):
        fdct_blocks(np.zeros((8, 4)))
    with pytest.raises(ValueError):
        idct_blocks(np.zeros((4, 8)))
