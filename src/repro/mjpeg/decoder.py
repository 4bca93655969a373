"""Baseline JPEG-style decoder, split along the paper's component cuts.

- :func:`decode_frame_coefficients` -- the **Fetch** stage: Huffman
  decode, inverse zigzag reorder, dequantize.
- :func:`idct_stage` -- the **IDCT** stage: inverse DCT + level shift.
- :func:`assemble_image` -- the **Reorder** stage: raster reassembly.
- :func:`decode_image` -- the whole pipeline (reference path for tests).
"""

from __future__ import annotations

import numpy as np

from repro.mjpeg.bitio import BitReader
from repro.mjpeg.dct import idct_blocks, pixels_from_idct
from repro.mjpeg.huffman import EOB, STD_AC_LUMA, STD_DC_LUMA, ZRL, decode_magnitude
from repro.mjpeg.quant import dequantize, quant_table
from repro.mjpeg.zigzag import dezigzag


class DecodeError(Exception):
    """Raised on a malformed entropy-coded segment."""


def decode_frame_bits(payload: bytes, n_blocks: int) -> np.ndarray:
    """Entropy-decode ``n_blocks`` zigzag blocks -> (n_blocks, 64) int32."""
    reader = BitReader(payload)
    return decode_plane(reader, n_blocks)


#: Magnitude masks / EXTEND thresholds indexed by category (<= 16).
_EMASK = [(1 << i) - 1 for i in range(17)]
_HALF = [0] + [1 << (i - 1) for i in range(1, 17)]
_WMASK = _EMASK  # window-register masks; refill only needs indices < 16


def decode_plane(
    reader: BitReader,
    n_blocks: int,
    dc_table=STD_DC_LUMA,
    ac_table=STD_AC_LUMA,
) -> np.ndarray:
    """Decode one plane's blocks from the current reader position.

    The hot path of the Fetch stage, inlined into one loop of small-int
    ops.  The payload is reinterpreted as big-endian 32-bit words (one
    vectorised ``np.frombuffer``, 1-padded past the end so the EOF window
    convention falls out for free); a <= 48-bit window register is
    refilled one word at a time, and the packed LUTs
    (:attr:`HuffmanTable.lut_dc` / :attr:`~HuffmanTable.lut_ac`) resolve
    code length, run and magnitude size in a single list index.  When a
    whole AC symbol fits the 16-bit window (the common case), a second
    index into :attr:`~HuffmanTable.lut_ac_value` yields its signed
    coefficient with no shift, mask or EXTEND; the DC magnitude is still
    cut from the window, so no wide-integer arithmetic survives in the
    loop.  Decoded coefficients are gathered sparsely and
    scattered into the output array in one numpy assignment.  Bit-exact
    with :func:`decode_plane_reference` (the pre-LUT per-bit walk), which
    the property tests enforce.
    """
    dc_lut = dc_table.lut_dc
    ac_lut = ac_table.lut_ac
    ac_value = ac_table.lut_ac_value
    data = reader._data
    total_bits = reader._nbytes * 8
    start = reader.bits_read
    # Word padding: 0xFF bytes so windows past EOF read as 1-bits (the
    # JPEG convention) and two spare words so refills never bounds-check.
    pad = (-reader._nbytes) % 4
    words = np.frombuffer(data + b"\xff" * (pad + 8), dtype=">u4").tolist()
    w = start >> 5
    wbits = 32 - (start & 31)
    wreg = words[w] & ((1 << wbits) - 1)
    w += 1
    avail = total_bits - start  # real (non-padding) bits left

    idxs: list = []
    vals: list = []
    idx_append = idxs.append
    val_append = vals.append
    wmask = _WMASK
    emask = _EMASK
    half = _HALF
    prev_dc = 0
    base = 0
    try:
        for _ in range(n_blocks):
            # -- DC symbol + EXTEND ------------------------------------
            if wbits < 16:
                wreg = ((wreg & wmask[wbits]) << 32) | words[w]
                w += 1
                wbits += 32
            window = (wreg >> (wbits - 16)) & 0xFFFF
            entry = dc_lut[window]
            if entry <= 0:
                if avail < 16:
                    raise EOFError("bit stream exhausted")
                raise DecodeError("invalid DC Huffman code")
            need = entry >> 16
            if need > avail:
                raise EOFError("bit stream exhausted")
            avail -= need
            category = entry & 0xFF
            if category:
                if need <= 16:
                    mag = (window >> (16 - need)) & emask[category]
                    wbits -= need
                else:
                    if wbits < need:
                        wreg = ((wreg & ((1 << wbits) - 1)) << 32) | words[w]
                        w += 1
                        wbits += 32
                    wbits -= need
                    mag = (wreg >> wbits) & emask[category]
                if mag < half[category]:
                    mag -= emask[category]
                prev_dc += mag
            else:
                wbits -= need
            if prev_dc:
                idx_append(base)
                val_append(prev_dc)

            # -- AC symbols --------------------------------------------
            k = 1
            while k < 64:
                if wbits < 16:
                    wreg = ((wreg & wmask[wbits]) << 32) | words[w]
                    w += 1
                    wbits += 32
                window = (wreg >> (wbits - 16)) & 0xFFFF
                entry = ac_lut[window]
                if entry > 0:
                    need = entry >> 16
                    if need > avail:
                        raise EOFError("bit stream exhausted")
                    avail -= need
                    k += (entry >> 8) & 0xFF
                    if k >= 64:
                        raise DecodeError(f"AC run overflows block (k={k})")
                    mag = ac_value[window]
                    if mag:  # code and magnitude fit the window
                        wbits -= need
                        idx_append(base + k)
                        val_append(mag)
                    elif entry & 0xFF:  # need > 16: magnitude from the register
                        size = entry & 0xFF
                        if wbits < need:
                            wreg = ((wreg & ((1 << wbits) - 1)) << 32) | words[w]
                            w += 1
                            wbits += 32
                        wbits -= need
                        mag = (wreg >> wbits) & emask[size]
                        if mag < half[size]:
                            mag -= emask[size]
                        idx_append(base + k)
                        val_append(mag)
                    else:  # ZRL
                        wbits -= need
                    k += 1
                elif entry < 0:  # EOB; entry is -code_length
                    if -entry > avail:
                        raise EOFError("bit stream exhausted")
                    avail += entry
                    wbits += entry
                    break
                else:
                    if avail < 16:
                        raise EOFError("bit stream exhausted")
                    raise DecodeError("invalid AC Huffman code")
            base += 64
    except EOFError as eof:
        reader._seek_bit(total_bits - avail)
        raise DecodeError("entropy segment truncated") from eof
    except DecodeError:
        reader._seek_bit(total_bits - avail)
        raise
    reader._seek_bit(total_bits - avail)
    out = np.zeros(n_blocks * 64, dtype=np.int32)
    if idxs:
        out[np.asarray(idxs, dtype=np.intp)] = vals
    return out.reshape(n_blocks, 64)


def decode_plane_reference(
    reader: BitReader,
    n_blocks: int,
    dc_table=STD_DC_LUMA,
    ac_table=STD_AC_LUMA,
) -> np.ndarray:
    """The pre-LUT decode path: per-symbol F.16 MINCODE/MAXCODE walk.

    Kept as the bit-exactness oracle for :func:`decode_plane` and as the
    reference of the entropy-decode gate in
    ``benchmarks/test_perf_gates.py``.
    """
    out = np.zeros((n_blocks, 64), dtype=np.int32)
    prev_dc = 0
    for b in range(n_blocks):
        prev_dc = _decode_block(reader, out[b], prev_dc, dc_table, ac_table)
    return out


def _decode_block(
    reader: BitReader,
    zz: np.ndarray,
    prev_dc: int,
    dc_table=STD_DC_LUMA,
    ac_table=STD_AC_LUMA,
) -> int:
    try:
        category = dc_table.decode_walk(reader)
        diff = decode_magnitude(reader, category)
        dc = prev_dc + diff
        zz[0] = dc
        k = 1
        while k < 64:
            symbol = ac_table.decode_walk(reader)
            if symbol == EOB:
                break
            if symbol == ZRL:
                k += 16
                continue
            run = symbol >> 4
            size = symbol & 0x0F
            k += run
            if k >= 64:
                raise DecodeError(f"AC run overflows block (k={k})")
            zz[k] = decode_magnitude(reader, size)
            k += 1
        return dc
    except EOFError as eof:
        raise DecodeError("entropy segment truncated") from eof


def decode_frame_coefficients(
    payload: bytes, n_blocks: int, quality: int
) -> np.ndarray:
    """The Fetch stage: Huffman + dezigzag + dequantize -> (n, 8, 8)."""
    zz = decode_frame_bits(payload, n_blocks)
    return dequantize(dezigzag(zz), quant_table(quality))


def coefficients_from_qzz(qcoefs_zz: np.ndarray, quality: int) -> np.ndarray:
    """Fetch-stage fast path from stored quantized zigzag coefficients.

    Produces bit-identical output to :func:`decode_frame_coefficients`
    on the frame's own payload (verified by tests); used when the Python
    bit walk would dominate a large simulated run.
    """
    return dequantize(dezigzag(np.asarray(qcoefs_zz, dtype=np.int32)), quant_table(quality))


def idct_stage(coefs: np.ndarray) -> np.ndarray:
    """The IDCT stage: coefficients -> uint8 pixel blocks."""
    return pixels_from_idct(idct_blocks(coefs))


def split_blocks(blocks: np.ndarray, n_batches: int) -> list:
    """Partition (n, 8, 8) blocks into ``n_batches`` contiguous batches.

    Every batch is non-empty and sizes differ by at most one; this is the
    Fetch component's message partitioning.
    """
    blocks = np.asarray(blocks)
    n = blocks.shape[0]
    if n_batches <= 0 or n_batches > n:
        raise ValueError(f"cannot split {n} blocks into {n_batches} batches")
    bounds = np.linspace(0, n, n_batches + 1).round().astype(int)
    return [blocks[bounds[i] : bounds[i + 1]] for i in range(n_batches)]


def assemble_image(batches: list, height: int, width: int) -> np.ndarray:
    """The Reorder stage: ordered pixel-block batches -> (H, W) image."""
    from repro.mjpeg.encoder import blocks_to_image

    blocks = np.concatenate([np.asarray(b) for b in batches], axis=0)
    return blocks_to_image(blocks, height, width)


def decode_image(payload: bytes, height: int, width: int, quality: int) -> np.ndarray:
    """Full reference decode: Fetch -> IDCT -> Reorder in one call."""
    n_blocks = (height // 8) * (width // 8)
    coefs = decode_frame_coefficients(payload, n_blocks, quality)
    pixels = idct_stage(coefs)
    return assemble_image([pixels], height, width)
