"""The per-symbol plane decode, kept verbatim as the exactness reference.

``repro.mjpeg.decoder.decode_plane`` decodes a plane with a successor
table and one pointer chase.  Before that it was the hand-inlined loop
below: a <= 48-bit window register fed by 32-bit words, and three
2^16-entry packed lists (``lut_dc``, ``lut_ac`` and ``lut_ac_value``)
that resolve a symbol, its total bit count and, for most AC symbols,
its signed coefficient in one index each.  The loop is unchanged; only
its tables, which were ``HuffmanTable`` properties, are built here by
the functions of the same names.

``tests/mjpeg/test_entropy_decode_differential.py`` holds the chain
decode to this loop on coefficients, error text, error cause and reader
position, and Ablation A14 (``benchmarks/test_ablation_entropy_decode.py``)
times the two.
"""

from functools import lru_cache
from typing import List

import numpy as np

from repro.mjpeg.bitio import BitReader
from repro.mjpeg.decoder import DecodeError
from repro.mjpeg.huffman import EOB, STD_AC_LUMA, STD_DC_LUMA
from repro.mjpeg.quant import dequantize, quant_table
from repro.mjpeg.zigzag import dezigzag


@lru_cache(maxsize=None)
def lut_dc(table) -> List[int]:
    """2^16-entry table specialised for DC decode: the symbol *is* the
    magnitude category, so each entry packs the total consumption up
    front as ``((code_length + category) << 16) | category`` (0 =
    invalid)."""
    return table._window_table(lambda length, category: ((length + category) << 16) | category)


def _ac_entry(length: int, symbol: int) -> int:
    """One :func:`lut_ac` entry."""
    if symbol == EOB:
        return -length
    run = symbol >> 4
    size = symbol & 0x0F
    return ((length + size) << 16) | (run << 8) | size


@lru_cache(maxsize=None)
def lut_ac(table) -> List[int]:
    """2^16-entry table specialised for AC decode.  Entries are
    ``((code_length + size) << 16) | (run << 8) | size`` for ordinary
    run/size symbols (ZRL included: run=15, size=0), ``-code_length``
    for EOB, and 0 for an invalid window."""
    return table._window_table(_ac_entry)


@lru_cache(maxsize=None)
def lut_ac_value(table) -> List[int]:
    """2^16-entry companion of :func:`lut_ac`: for a window whose AC
    code and magnitude bits both fit in its 16 bits, the signed
    coefficient (EXTEND applied); 0 for every other window (EOB, ZRL, a
    symbol that needs more than 16 bits, invalid).  A valid coefficient
    is never 0, so the loop reads the value in one index and, on 0,
    cuts the magnitude from its bit register."""
    out = [0] * (1 << 16)
    for window, length, symbol in table._code_windows():
        size = symbol & 0x0F
        need = length + size
        if not size or need > 16:  # EOB, ZRL, or past the window
            continue
        span = 1 << (16 - need)
        for bits in range(1 << size):
            value = bits if bits >= 1 << (size - 1) else bits - (1 << size) + 1
            out[window : window + span] = [value] * span
            window += span
    return out


#: Magnitude masks / EXTEND thresholds indexed by category (<= 16).
_EMASK = [(1 << i) - 1 for i in range(17)]
_HALF = [0] + [1 << (i - 1) for i in range(1, 17)]
_WMASK = _EMASK  # window-register masks; refill only needs indices < 16


def decode_plane_loop(
    reader: BitReader,
    n_blocks: int,
    dc_table=STD_DC_LUMA,
    ac_table=STD_AC_LUMA,
) -> np.ndarray:
    """Decode one plane's blocks from the current reader position.

    The payload is reinterpreted as big-endian 32-bit words (one
    vectorised ``np.frombuffer``, 1-padded past the end so the EOF window
    convention falls out for free); a <= 48-bit window register is
    refilled one word at a time, and the packed LUTs (:func:`lut_dc` /
    :func:`lut_ac`) resolve code length, run and magnitude size in a
    single list index.  When a whole AC symbol fits the 16-bit window
    (the common case), a second index into :func:`lut_ac_value` yields
    its signed coefficient with no shift, mask or EXTEND; the DC
    magnitude is still cut from the window, so no wide-integer
    arithmetic survives in the loop.  Decoded coefficients are gathered
    sparsely and scattered into the output array in one numpy
    assignment.
    """
    dc_lut = lut_dc(dc_table)
    ac_lut = lut_ac(ac_table)
    ac_value = lut_ac_value(ac_table)
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


def decode_frame_coefficients_loop(payload: bytes, n_blocks: int, quality: int) -> np.ndarray:
    """``repro.mjpeg.decoder.decode_frame_coefficients`` on the loop:
    the Fetch stage as it was, for end-to-end comparisons."""
    zz = decode_plane_loop(BitReader(payload), n_blocks)
    return dequantize(dezigzag(zz), quant_table(quality))
