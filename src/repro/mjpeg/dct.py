"""8x8 type-II/III DCT, vectorised over batches of blocks.

The transform is two matrix products with the orthonormal DCT-II basis
matrix ``C`` (``X = C B C^T``), each a batched ``@`` over any leading
dimensions -- the numpy-vectorisation discipline of the hpc-parallel
guides: no Python loop touches a pixel.
"""

from __future__ import annotations

import numpy as np


def _dct_matrix() -> np.ndarray:
    k = np.arange(8).reshape(8, 1)
    n = np.arange(8).reshape(1, 8)
    c = np.cos((2 * n + 1) * k * np.pi / 16)
    c[0, :] *= np.sqrt(1 / 8)
    c[1:, :] *= np.sqrt(2 / 8)
    return c


#: Orthonormal 8-point DCT-II basis matrix.
DCT_MATRIX = _dct_matrix()
_DCT_MATRIX_T = DCT_MATRIX.T.copy()

# The association order below is part of the output contract: rounding
# differs between ``(C^T @ X) @ C`` and ``C^T @ (X @ C)``, and only the
# left-first order reproduces the committed frame digests bit for bit.


def fdct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT of (..., 8, 8) pixel blocks (float64 out)."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing (8, 8), got {blocks.shape}")
    return (DCT_MATRIX @ blocks) @ _DCT_MATRIX_T


def idct_blocks(coefs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of (..., 8, 8) coefficient blocks (float64 out)."""
    coefs = np.asarray(coefs, dtype=np.float64)
    if coefs.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing (8, 8), got {coefs.shape}")
    return (_DCT_MATRIX_T @ coefs) @ DCT_MATRIX


def pixels_from_idct(samples: np.ndarray) -> np.ndarray:
    """Undo the JPEG level shift and clamp to uint8."""
    return np.clip(np.round(samples) + 128, 0, 255).astype(np.uint8)
