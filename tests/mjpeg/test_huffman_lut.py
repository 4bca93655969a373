"""Property tests pinning the LUT decode fast paths to the F.16 walk.

The flat-LUT symbol decode (``HuffmanTable.decode``), the packed-LUT
plane decode (``decode_plane``) and the per-bit MINCODE/MAXCODE walk
must be bit-for-bit interchangeable, including their error behaviour.
"""

import random

import numpy as np
import pytest

from repro.mjpeg.bitio import BitReader, BitWriter
from repro.mjpeg.decoder import (
    DecodeError,
    decode_frame_bits,
    decode_plane,
    decode_plane_reference,
)
from repro.mjpeg.encoder import encode_image, encode_plane
from repro.mjpeg.huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    decode_magnitude,
    magnitude_category,
)

TABLES = [STD_DC_LUMA, STD_AC_LUMA, STD_DC_CHROMA, STD_AC_CHROMA]


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_lut_symbol_decode_matches_walk_on_random_sequences(table):
    rng = random.Random(1234)
    symbols = list(table.encode_map)
    for _ in range(25):
        seq = [rng.choice(symbols) for _ in range(rng.randrange(1, 120))]
        writer = BitWriter()
        for sym in seq:
            table.encode(writer, sym)
        payload = writer.getvalue()
        via_lut = BitReader(payload)
        via_walk = BitReader(payload)
        for sym in seq:
            assert table.decode(via_lut) == sym
            assert table.decode_walk(via_walk) == sym
        assert via_lut.bits_read == via_walk.bits_read


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_lut_covers_every_window_like_the_walk(table):
    # Spot-check windows across the whole 16-bit space: the LUT entry
    # must agree with a fresh walk over the same bits.
    for window in range(0, 1 << 16, 251):
        payload = window.to_bytes(2, "big")
        entry = table.lut[window]
        walk_reader = BitReader(payload)
        try:
            symbol = table.decode_walk(walk_reader)
        except (ValueError, EOFError):
            symbol = None
        if symbol is None:
            # the walk could not resolve a symbol inside 16 bits
            assert entry == 0
        else:
            assert entry == (walk_reader.bits_read << 8) | symbol


def test_decode_plane_matches_reference_on_random_blocks():
    rng = np.random.default_rng(42)
    for trial in range(8):
        n_blocks = int(rng.integers(1, 24))
        qzz = np.zeros((n_blocks, 64), dtype=np.int32)
        # sparse-ish blocks with occasional big magnitudes and long runs
        for b in range(n_blocks):
            for _ in range(int(rng.integers(0, 12))):
                qzz[b, int(rng.integers(0, 64))] = int(rng.integers(-1023, 1024))
        writer = BitWriter()
        encode_plane(writer, qzz)
        writer.align()
        payload = writer.getvalue()
        fast = decode_plane(BitReader(payload), n_blocks)
        ref = decode_plane_reference(BitReader(payload), n_blocks)
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_array_equal(fast, qzz)


def test_decode_plane_chroma_tables_and_mid_stream_start():
    # Two planes back to back with different tables; the second decode
    # starts at an arbitrary (non byte-aligned) bit offset.
    rng = np.random.default_rng(7)
    qzz_a = rng.integers(-255, 256, size=(5, 64)).astype(np.int32)
    qzz_b = rng.integers(-255, 256, size=(3, 64)).astype(np.int32)
    writer = BitWriter()
    encode_plane(writer, qzz_a, STD_DC_LUMA, STD_AC_LUMA)
    encode_plane(writer, qzz_b, STD_DC_CHROMA, STD_AC_CHROMA)
    writer.align()
    payload = writer.getvalue()

    fast = BitReader(payload)
    a1 = decode_plane(fast, 5, STD_DC_LUMA, STD_AC_LUMA)
    b1 = decode_plane(fast, 3, STD_DC_CHROMA, STD_AC_CHROMA)
    ref = BitReader(payload)
    a2 = decode_plane_reference(ref, 5, STD_DC_LUMA, STD_AC_LUMA)
    b2 = decode_plane_reference(ref, 3, STD_DC_CHROMA, STD_AC_CHROMA)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    assert fast.bits_read == ref.bits_read


def test_truncated_stream_raises_decode_error():
    image = (np.arange(64 * 64) % 251).astype(np.uint8).reshape(64, 64)
    frame = encode_image(image, quality=50)
    cut = frame.payload[: max(1, len(frame.payload) // 3)]
    with pytest.raises(DecodeError):
        decode_frame_bits(cut, frame.n_blocks)


def test_invalid_code_raises_decode_error():
    # 0xFF bytes decode as an all-ones window, which no DC luma code
    # matches; with >= 16 bits left that is a corrupt stream, not EOF.
    with pytest.raises(DecodeError):
        decode_frame_bits(b"\xff" * 8, 1)


def test_bitwriter_accepts_wide_values():
    writer = BitWriter()
    writer.write((1 << 40) - 3, 41)
    writer.write(0x5, 3)
    payload = writer.getvalue()
    reader = BitReader(payload)
    assert reader.read(41) == (1 << 40) - 3
    assert reader.read(3) == 0x5
    with pytest.raises(ValueError):
        writer.write(4, 2)  # value does not fit
    with pytest.raises(ValueError):
        writer.write(1, -1)


def test_bitwriter_align_pads_with_ones():
    writer = BitWriter()
    writer.write(0b101, 3)
    writer.align()
    assert writer.getvalue() == bytes([0b10111111])
    assert writer.bits_written == 3  # padding not counted
    writer.align()  # no-op when already aligned
    writer.write(0b1, 1)
    assert writer.getvalue() == bytes([0b10111111, 0b11111111])
    assert writer.bits_written == 4


def test_peek16_pads_with_ones_past_eof():
    reader = BitReader(b"\xa5")
    assert reader.peek16() == (0xA5 << 8) | 0xFF
    assert reader.read(8) == 0xA5
    assert reader.peek16() == 0xFFFF
    with pytest.raises(EOFError):
        reader.skip(1)


@pytest.mark.parametrize("table", [STD_AC_LUMA, STD_AC_CHROMA], ids=lambda t: t.name)
def test_ac_value_table_matches_extend_on_every_window(table):
    # Every window whose AC code plus magnitude fits in 16 bits maps to
    # the EXTEND of its magnitude bits; every other window maps to 0.
    packed = table.lut_ac
    values = table.lut_ac_value
    for window in range(1 << 16):
        entry = packed[window]
        need = entry >> 16
        size = entry & 0xFF
        if entry > 0 and size and need <= 16:
            bits = (window >> (16 - need)) & ((1 << size) - 1)
            reader = BitWriter()
            reader.write(bits, size)
            assert values[window] == decode_magnitude(BitReader(reader.getvalue()), size)
            assert values[window] != 0
        else:
            assert values[window] == 0


def _ac_needs(qzz, ac_table):
    """Bits each coded AC coefficient of ``qzz`` takes (code + magnitude)."""
    needs = []
    for block in qzz:
        run = 0
        for value in block[1:]:
            if value == 0:
                run += 1
                continue
            while run > 15:
                run -= 16
            size = magnitude_category(int(value))
            needs.append(ac_table.encode_map[(run << 4) | size][1] + size)
            run = 0
    return needs


def test_decode_plane_reaches_both_ac_magnitude_branches():
    # Crafted blocks: short symbols served by the AC value table, ZRL
    # runs, and 10-bit magnitudes whose code plus magnitude
    # overflow the 16-bit window (the bit-register branch).
    qzz = np.zeros((4, 64), dtype=np.int32)
    qzz[0, 0] = 5
    qzz[0, 1:6] = [1, -1, 3, -2, 7]
    qzz[0, 30] = 1000  # run 24 -> ZRL + run 8, size 10
    qzz[0, 63] = -1
    qzz[1, 0] = -700
    qzz[1, 1] = -1023
    qzz[1, 2] = 513
    qzz[1, 20] = 777
    qzz[2, 0] = 12
    qzz[3, 50] = -600
    qzz[3, 51] = 40
    for dc_table, ac_table in ((STD_DC_LUMA, STD_AC_LUMA), (STD_DC_CHROMA, STD_AC_CHROMA)):
        needs = _ac_needs(qzz, ac_table)
        assert any(n <= 16 for n in needs) and any(n > 16 for n in needs)
        writer = BitWriter()
        encode_plane(writer, qzz, dc_table, ac_table)
        writer.align()
        payload = writer.getvalue()
        fast = decode_plane(BitReader(payload), 4, dc_table, ac_table)
        ref = decode_plane_reference(BitReader(payload), 4, dc_table, ac_table)
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_array_equal(fast, qzz)


def test_random_blocks_reach_both_ac_magnitude_branches():
    # The property test above draws magnitudes up to 1023; its blocks
    # must exercise the table branch and the need > 16 branch alike.
    rng = np.random.default_rng(42)
    needs = []
    for trial in range(8):
        n_blocks = int(rng.integers(1, 24))
        qzz = np.zeros((n_blocks, 64), dtype=np.int32)
        for b in range(n_blocks):
            for _ in range(int(rng.integers(0, 12))):
                qzz[b, int(rng.integers(0, 64))] = int(rng.integers(-1023, 1024))
        needs += _ac_needs(qzz, STD_AC_LUMA)
    assert any(n <= 16 for n in needs) and any(n > 16 for n in needs)
