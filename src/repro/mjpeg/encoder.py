"""Baseline JPEG-style encoder for synthetic MJPEG streams.

Grayscale, 8x8 blocks, Annex K luminance tables, DC differential +
run-length AC coding -- a real entropy-coded segment, so the Fetch
component's Huffman decode exercises a genuine bitstream.  The container
is our own (no JFIF markers): each frame record carries its bit payload
plus geometry, which is all the decoder needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.mjpeg.bitio import BitWriter
from repro.mjpeg.dct import fdct_blocks
from repro.mjpeg.huffman import EOB, STD_AC_LUMA, STD_DC_LUMA, ZRL
from repro.mjpeg.quant import quant_table, quantize
from repro.mjpeg.zigzag import zigzag


def image_to_blocks(image: np.ndarray) -> np.ndarray:
    """(H, W) -> (H//8 * W//8, 8, 8), raster block order."""
    image = np.asarray(image)
    h, w = image.shape
    if h % 8 or w % 8:
        raise ValueError(f"image dimensions must be multiples of 8, got {image.shape}")
    return (
        image.reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2).reshape(-1, 8, 8)
    )


def blocks_to_image(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`image_to_blocks`."""
    blocks = np.asarray(blocks)
    if height % 8 or width % 8:
        raise ValueError(f"dimensions must be multiples of 8: {(height, width)}")
    n = (height // 8) * (width // 8)
    if blocks.shape != (n, 8, 8):
        raise ValueError(f"expected {(n, 8, 8)}, got {blocks.shape}")
    return (
        blocks.reshape(height // 8, width // 8, 8, 8).swapaxes(1, 2).reshape(height, width)
    )


@dataclass
class EncodedFrame:
    """One encoded image: bit payload + everything needed to decode it."""

    payload: bytes
    n_bits: int
    height: int
    width: int
    quality: int
    n_blocks: int
    #: The quantized zigzag coefficients, stored sparsely -- retained so
    #: the cost-model-only decode path can skip the Python-level bit
    #: walk.  ``nz_index`` holds the flat positions of the nonzero
    #: entries of the ``(n_blocks, 64)`` array (uint16 up to 1 024
    #: blocks, uint32 above), ``nz_value`` their int16 values.  Both
    #: are read-only.
    nz_index: np.ndarray
    nz_value: np.ndarray

    @property
    def qcoefs_zz(self) -> np.ndarray:
        """Quantized zigzag coefficients, a read-only dense int16
        ``(n_blocks, 64)`` array rebuilt from the sparse store."""
        dense = np.zeros(self.n_blocks * 64, dtype=np.int16)
        dense[self.nz_index] = self.nz_value
        dense.flags.writeable = False
        return dense.reshape(self.n_blocks, 64)


def encode_image(image: np.ndarray, quality: int = 75) -> EncodedFrame:
    """Encode a grayscale uint8 image into an entropy-coded segment."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError(f"expected uint8 image, got {image.dtype}")
    h, w = image.shape
    blocks = image_to_blocks(image).astype(np.float64) - 128.0
    table = quant_table(quality)
    qblocks = quantize(fdct_blocks(blocks), table)
    qzz = zigzag(qblocks)  # (n_blocks, 64), int32

    writer = BitWriter()
    nonzero = encode_plane(writer, qzz)
    writer.align()  # 1-pad the tail byte here, not in getvalue()
    payload = writer.getvalue()
    nz_index = nonzero.astype(np.uint16 if qzz.size <= 1 << 16 else np.uint32)
    nz_value = qzz.reshape(-1)[nonzero].astype(np.int16)
    # Read-only: a stream shared between runs keeps its coefficients.
    nz_index.flags.writeable = nz_value.flags.writeable = False
    return EncodedFrame(
        payload=payload,
        n_bits=writer.bits_written,
        height=h,
        width=w,
        quality=quality,
        n_blocks=qzz.shape[0],
        nz_index=nz_index,
        nz_value=nz_value,
    )


def encode_plane(
    writer: BitWriter,
    qzz: np.ndarray,
    dc_table=STD_DC_LUMA,
    ac_table=STD_AC_LUMA,
) -> np.ndarray:
    """Encode one plane's (n, 64) quantized zigzag blocks with its own DC
    predictor chain and Huffman tables.  Returns the flat positions of
    the plane's nonzero coefficients, which ``encode_image`` stores.

    The whole plane is coded with array operations.  Every Huffman code
    becomes one ``(value, length)`` token: the DC code followed by its
    magnitude bits, one token per ZRL, each run/size code followed by
    its magnitude bits, and the EOB.  A token is at most 31 bits long (a
    code has at most 16 bits and a magnitude category at most 15).
    Tokens go into an (n, 65) grid in stream order: the DC takes slot 0,
    an AC coefficient its zigzag index, the j-th ZRL before it the index
    of the 16j-th zero it skips, and the EOB slot 64.  Their bit ranges
    are disjoint, so :func:`_pack_tokens` sums them into 32-bit words,
    and the plane reaches ``writer`` as one wide write, at any bit
    offset.  Output is byte-identical to coding the symbols one by one.

    A coefficient whose symbol the tables lack (an AC value with
    |v| >= 1024 or a DC difference with |d| >= 2048 in the standard
    tables) raises ``ValueError`` naming the table and the block.
    """
    qzz = np.asarray(qzz)
    n_blocks = qzz.shape[0]
    nonzero = np.flatnonzero(qzz != 0)
    if n_blocks == 0:
        return nonzero
    tokens = np.zeros((n_blocks, 65), dtype=np.int64)
    lengths = np.zeros((n_blocks, 65), dtype=np.int64)

    dcs = qzz[:, 0].astype(np.int64)
    diffs = dcs.copy()
    diffs[1:] -= dcs[:-1]
    category = _category(diffs)
    code, length = _lookup(dc_table, category, category, np.arange(n_blocks))
    tokens[:, 0] = (code << category) | _magnitude_bits(diffs, category)
    lengths[:, 0] = length + category

    ac = nonzero[(nonzero & 63) != 0]
    rows = ac >> 6
    cols = ac & 63
    values = qzz[rows, cols].astype(np.int64)
    prev = np.zeros_like(cols)  # zigzag index of the previous nonzero, or 0
    prev[1:] = np.where(rows[1:] == rows[:-1], cols[:-1], 0)
    run = cols - prev - 1
    category = _category(values)
    code, length = _lookup(ac_table, ((run & 15) << 4) | category, category, rows)
    tokens[rows, cols] = (code << category) | _magnitude_bits(values, category)
    lengths[rows, cols] = length + category

    for j in (1, 2, 3):  # a run of at most 62 zeros needs at most 3 ZRLs
        zrl = run >> 4 >= j
        if zrl.any():
            slots = rows[zrl], prev[zrl] + 16 * j
            tokens[slots], lengths[slots] = _code(ac_table, ZRL, rows[zrl][0])
    eob = np.flatnonzero(qzz[:, 63] == 0)  # the last nonzero is below 63
    if eob.size:
        tokens[eob, 64], lengths[eob, 64] = _code(ac_table, EOB, eob[0])

    used = lengths > 0
    value, n_bits = _pack_tokens(tokens[used], lengths[used])
    writer.write(value, n_bits)
    return nonzero


#: 2^0 .. 2^62: ``searchsorted`` over it gives an exact bit length.
_POW2 = np.left_shift(1, np.arange(63, dtype=np.int64))


def _category(values: np.ndarray) -> np.ndarray:
    """JPEG SSSS category (bit length of |v|) of each int64 value."""
    return np.searchsorted(_POW2, np.abs(values), side="right")


def _magnitude_bits(values: np.ndarray, category: np.ndarray) -> np.ndarray:
    """The additional bits of each value: v itself when positive,
    v + 2^category - 1 (its low bits in ones' complement) when negative."""
    return np.where(values < 0, values + np.left_shift(1, category) - 1, values)


def _lookup(table, symbols, category, blocks):
    """Gather ``(codes, lengths)`` arrays for ``symbols`` from ``table``.

    Raises ``ValueError`` for the first symbol the table lacks, or whose
    magnitude category does not fit the 4-bit size field of a symbol.
    """
    codes, lengths = table.encode_arrays
    found = lengths[symbols & 0xFF]
    bad = (found == 0) | (category > 15)
    if bad.any():
        i = int(np.argmax(bad))
        if category[i] > 15:
            raise ValueError(
                f"magnitude category {int(category[i])} has no symbol in "
                f"table {table.name!r} (block {int(blocks[i])})"
            )
        raise _not_in_table(table, int(symbols[i]), int(blocks[i]))
    return codes[symbols], found


def _code(table, symbol: int, block: int) -> Tuple[int, int]:
    """``(code, length)`` of one symbol."""
    try:
        return table.encode_map[symbol]
    except KeyError:
        raise _not_in_table(table, symbol, block) from None


def _not_in_table(table, symbol: int, block: int) -> ValueError:
    return ValueError(f"symbol {symbol:#x} not in table {table.name!r} (block {block})")


def _pack_tokens(tokens: np.ndarray, lengths: np.ndarray) -> Tuple[int, int]:
    """Concatenate ``(value, length)`` tokens of at most 32 bits, MSB
    first, into one ``(value, n_bits)`` pair.

    A token starting at bit ``s`` lies inside the 64-bit window of words
    ``s // 32`` and ``s // 32 + 1``; shifted into that window, its high
    and low halves add into the two words.  Token bit ranges are
    disjoint, so each word is a sum of disjoint bit fields below 2^32,
    which float64 ``np.bincount`` adds exactly.
    """
    ends = np.cumsum(lengths)
    n_bits = int(ends[-1])
    starts = ends - lengths
    word = starts >> 5
    shift = (64 - (starts & 31) - lengths).astype(np.uint64)
    window = tokens.astype(np.uint64) << shift
    n_words = (n_bits + 31) >> 5
    words = np.bincount(
        np.concatenate((word, word + 1)),
        weights=np.concatenate(
            (window >> np.uint64(32), window & np.uint64(0xFFFFFFFF))
        ).astype(np.float64),
        minlength=n_words + 1,
    )[:n_words]
    packed = int.from_bytes(words.astype(">u4").tobytes(), "big")
    return packed >> (n_words * 32 - n_bits), n_bits
