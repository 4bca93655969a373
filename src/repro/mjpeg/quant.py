"""Quantization tables (JPEG Annex K) with libjpeg quality scaling."""

from __future__ import annotations

import numpy as np

#: Annex K table K.1 -- luminance quantization, raster order.
STD_LUMA_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int32,
)


def quant_table(quality: int = 75) -> np.ndarray:
    """Annex K luminance table scaled with the libjpeg quality formula.

    quality 50 returns the base table; higher is finer quantization.
    """
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000 // quality
    else:
        scale = 200 - 2 * quality
    table = (STD_LUMA_QUANT * scale + 50) // 100
    return np.clip(table, 1, 255).astype(np.int32)


def quantize(coefs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Round DCT coefficients to quantized integers (..., 8, 8)."""
    return np.round(np.asarray(coefs) / table).astype(np.int32)


def dequantize(qcoefs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rescale quantized integers back to coefficient magnitudes."""
    return (np.asarray(qcoefs) * table).astype(np.float64)
