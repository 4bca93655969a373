"""Baseline JPEG-style decoder, split along the paper's component cuts.

- :func:`decode_frame_coefficients` -- the **Fetch** stage: Huffman
  decode, inverse zigzag reorder, dequantize.
- :func:`idct_stage` -- the **IDCT** stage: inverse DCT + level shift.
- :func:`assemble_image` -- the **Reorder** stage: raster reassembly.
- :func:`decode_image` -- the whole pipeline (reference path for tests).

The Fetch stage's Huffman decode, :func:`decode_plane`, is array code:
numpy gives every decode state (bit offset and DC/AC mode) its
successor, one Python loop chases the chain from the plane's first
state, and numpy turns the chain into coefficients.
:func:`decode_plane_reference` is the per-bit F.16 walk it is tested
and gated against.
"""

from __future__ import annotations

import numpy as np

from repro.mjpeg.bitio import BitReader
from repro.mjpeg.dct import idct_blocks, pixels_from_idct
from repro.mjpeg.huffman import (
    EOB,
    NO_CODE,
    STD_AC_LUMA,
    STD_DC_LUMA,
    decode_magnitude,
)
from repro.mjpeg.quant import dequantize, quant_table
from repro.mjpeg.zigzag import dezigzag


class DecodeError(Exception):
    """Raised on a malformed entropy-coded segment."""


def decode_frame_bits(payload: bytes, n_blocks: int) -> np.ndarray:
    """Entropy-decode ``n_blocks`` zigzag blocks -> (n_blocks, 64) int32."""
    reader = BitReader(payload)
    return decode_plane(reader, n_blocks)


def decode_plane(
    reader: BitReader,
    n_blocks: int,
    dc_table=STD_DC_LUMA,
    ac_table=STD_AC_LUMA,
) -> np.ndarray:
    """Decode one plane's blocks from the current reader position.

    The hot path of the Fetch stage, in three steps (docs/performance.md,
    "Entropy decode"):

    1. one numpy pass gives every decode state its successor: a state is
       ``2 * bit_offset + mode`` (mode 0 expects a DC symbol, 1 an AC
       symbol), and the 16-bit window at each offset indexes the
       ``steps`` of :meth:`~repro.mjpeg.huffman.HuffmanTable.plane_tables`;
    2. one Python loop chases the successors from the first DC state;
       the chain's last state is the symbol that could not be decoded;
    3. numpy again turns the chain into zigzag indices and EXTENDed
       magnitudes, adds the DC prediction and scatters the plane.

    A block that fills coefficient 63 without an EOB is followed by a
    DC code, which the AC-mode chain cannot know: the chain is cut after
    the first such symbol, and the rest is chased again from there in DC
    mode by a loop that counts zigzag indices, so a plane is chased at
    most twice however many blocks fill.  Errors, their messages
    and the reader position are those of the per-symbol loop (kept in
    ``tests/mjpeg/reference_decode_loop.py``): a code that runs past the
    data, or no code in fewer than 16 real bits, is
    ``DecodeError("entropy segment truncated")`` from an ``EOFError``;
    the reader stops before the failing symbol, or after it when its
    run overflows the block.  A segment of 2^29 bits (64 MiB) or more
    from the reader position is refused with ``ValueError``.
    """
    start = reader.bits_read
    if not n_blocks:
        return np.zeros((0, 64), dtype=np.int32)
    steps, info = dc_table.plane_tables(ac_table)
    n_bits = reader._nbytes * 8 - start
    if 2 * n_bits + 2 > NO_CODE:  # past that, a NO_CODE step could stop short
        raise ValueError(f"a {n_bits}-bit entropy segment is over the 2^29-bit limit")
    windows, successor = _successors(reader._data, start, n_bits, steps)
    chain = _chase(successor, 0)
    while True:
        states = np.fromiter(chain, dtype=np.intp, count=len(chain))
        modes = states & 1
        dcs = np.flatnonzero(modes == 0)
        clean = len(dcs) > n_blocks  # the kept states decode without an error
        if clean:  # the chain reaches the DC code after the last block
            end = dcs[n_blocks]
            bounds = dcs[: n_blocks + 1]
        else:  # it fails first, and its failed last state adds nothing
            end = len(chain) - 1
            bounds = np.append(dcs[dcs < end], end)
        dcs = bounds[:-1]
        counts = bounds[1:] - dcs
        offsets = states[:end] >> 1
        sym = info[windows[offsets] << 1 | modes[:end]].astype(np.intp)
        index = (sym & 31).cumsum()
        k = index - np.repeat(index[dcs], counts)  # zigzag index in its block
        if end and k.max() >= 63:
            # A symbol placed coefficient 63 or ran past it.  An EOB after
            # coefficient 62 also reads 63, and so does a fill the chain
            # already follows with a DC state.
            eob = (sym & 31 == 1) & (sym >> 10 == 16)
            hit = np.flatnonzero((k > 63) | ((k == 63) & ~eob & (modes[1 : end + 1] == 1)))
            if len(hit):
                i = hit[0]
                if k[i] > 63:
                    reader._seek_bit(start + (chain[i + 1] >> 1))
                    raise DecodeError(f"AC run overflows block (k={k[i]})")
                # The block is full, so a DC code follows, but the chain
                # went on in AC mode: chase the rest again from the same
                # offset in DC mode, sending every later fill there too.
                inc = info.view(np.int32)[windows].view(np.int16) & 31
                chain[i + 1 :] = _chase_blocks(successor, inc, chain[i + 1] - 1)
                continue
        if not clean:
            _raise_at(reader, start, n_bits, chain[-1], windows, info)
        value = _values(windows, offsets, sym, dcs)
        out = np.zeros(n_blocks * 64, dtype=np.int32)
        # An EOB's 0 lands after its block's last coefficient and a ZRL's
        # on the last zero it skips: slots no other symbol writes.
        out[k + np.repeat(np.arange(n_blocks) << 6, counts)] = value
        reader._seek_bit(start + (chain[end] >> 1))
        return out.reshape(n_blocks, 64)


def _successors(data: bytes, start: int, n_bits: int, steps: np.ndarray):
    """Step 1: ``(windows, successor)``.  ``windows[o]`` is the 16-bit
    window at bit offset ``start + o``, 1-padded past the data (the JPEG
    convention), for every offset up to and including the end;
    ``successor[s]`` is the state after decoding one symbol in state
    ``s = 2 * o + mode``.  A symbol that runs past the data lands at or
    beyond ``len(successor)``, the sentinel, and so does every window
    no code starts (:data:`~repro.mjpeg.huffman.NO_CODE`)."""
    padded = data[start >> 3 :] + b"\xff\xff\xff\xff"
    words = np.ndarray((len(padded) - 3,), dtype=">u4", buffer=padded, strides=(1,))
    windows = (words.astype(np.intp)[:, None] >> np.arange(16, 8, -1) & 0xFFFF).ravel()
    windows = windows[start & 7 : (start & 7) + n_bits + 1]
    sentinel = 2 * n_bits + 2
    successor = steps[windows].view(np.int32) + np.arange(sentinel, dtype=np.int32)
    return windows, successor


def _chase(successor: np.ndarray, state: int) -> list:
    """Step 2: the states from ``state`` to the first whose successor
    lies at or past the sentinel -- the symbol that could not decode."""
    successor_of = memoryview(successor)
    sentinel = len(successor)
    chain = []
    append = chain.append
    while state < sentinel:
        append(state)
        state = successor_of[state]
    return chain


def _chase_blocks(successor: np.ndarray, inc: np.ndarray, state: int) -> list:
    """Step 2 for the rest of a plane after a block filled coefficient 63:
    :func:`_chase` from the DC state ``state``, counting each block's
    zigzag index (``inc`` per state, from ``plane_tables``' ``info``) so
    that every symbol that fills a block is followed by a DC state.  It
    costs about twice :func:`_chase` a state, so only planes with a full
    block pay it."""
    successor_of = memoryview(successor)
    inc_of = memoryview(inc)
    sentinel = len(successor)
    chain = []
    append = chain.append
    k = 0
    while state < sentinel:
        append(state)
        after = successor_of[state]
        if state & 1:
            k += inc_of[state]
            if k == 63 and after & 1:  # filled, and not by an EOB
                after -= 1
        else:
            k = 0
        state = after
    return chain


def _values(windows: np.ndarray, offsets: np.ndarray, sym: np.ndarray, dcs: np.ndarray):
    """Step 3: each decoded symbol's coefficient, from its fields ``sym``
    in :meth:`~repro.mjpeg.huffman.HuffmanTable.plane_tables`' ``info``.
    The magnitude bits open the window just past the code; EXTEND makes
    them signed, and the DC differences at ``dcs`` add up to the DC
    values.  EOB and ZRL take no magnitude bits and come out 0."""
    shift = sym >> 10
    magnitude = windows[offsets + (sym >> 5 & 31)]
    value = (magnitude >> shift) - (magnitude < 0x8000) * (0xFFFF >> shift)
    value[dcs] = np.cumsum(value[dcs])
    return value


def _raise_at(reader: BitReader, start: int, n_bits: int, state: int, windows, info) -> None:
    """Stop the reader before the symbol ``state`` could not decode and
    raise the per-symbol loop's error for it."""
    offset = state >> 1
    reader._seek_bit(start + offset)
    if not info[windows[offset] << 1 | state & 1] and n_bits - offset >= 16:
        raise DecodeError(f"invalid {'AC' if state & 1 else 'DC'} Huffman code")
    raise DecodeError("entropy segment truncated") from EOFError("bit stream exhausted")


def decode_plane_reference(
    reader: BitReader,
    n_blocks: int,
    dc_table=STD_DC_LUMA,
    ac_table=STD_AC_LUMA,
) -> np.ndarray:
    """The pre-LUT decode path: per-symbol F.16 MINCODE/MAXCODE walk.

    Kept as the bit-exactness oracle for :func:`decode_plane`, errors
    and reader position included, and as the reference of the
    entropy-decode gate in ``benchmarks/test_perf_gates.py``.
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
    """One block by the F.16 walk.  On an error the reader stops where
    :func:`decode_plane` stops: in front of the symbol that ran past the
    data or matched no code, and after a symbol whose run overflows the
    block."""
    symbol_at = reader.bits_read
    table = "DC"
    try:
        category = dc_table.decode_walk(reader)
        diff = decode_magnitude(reader, category)
        dc = prev_dc + diff
        zz[0] = dc
        table = "AC"
        k = 1
        while k < 64:
            symbol_at = reader.bits_read
            symbol = ac_table.decode_walk(reader)
            if symbol == EOB:
                break
            value = decode_magnitude(reader, symbol & 0x0F)
            k += symbol >> 4  # ZRL is a run of 15 and a zero
            if k >= 64:
                raise DecodeError(f"AC run overflows block (k={k})")
            zz[k] = value
            k += 1
        return dc
    except EOFError as eof:
        reader._seek_bit(symbol_at)
        raise DecodeError("entropy segment truncated") from eof
    except ValueError:  # decode_walk found no code in 16 bits
        reader._seek_bit(symbol_at)
        raise DecodeError(f"invalid {table} Huffman code") from None


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
