"""Unit and property tests for bit I/O and Huffman coding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mjpeg.bitio import BitReader, BitWriter
from repro.mjpeg.huffman import (
    AC_LUMA_BITS,
    AC_LUMA_VALS,
    DC_LUMA_BITS,
    DC_LUMA_VALS,
    HuffmanTable,
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    decode_magnitude,
    encode_magnitude,
    magnitude_category,
)


# -- bit I/O -----------------------------------------------------------------


def test_bitwriter_msb_first():
    w = BitWriter()
    w.write(0b101, 3)
    w.write(0b11111, 5)
    assert w.getvalue() == bytes([0b10111111])
    assert w.bits_written == 8


def test_bitwriter_pads_with_ones():
    w = BitWriter()
    w.write(0b0, 1)
    assert w.getvalue() == bytes([0b01111111])
    assert w.bits_written == 1


def test_bitwriter_value_range_checked():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write(4, 2)
    with pytest.raises(ValueError):
        w.write(-1, 3)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 31, 33, 64, 65, 1000, 100_000])
def test_one_wide_write_equals_bit_by_bit_writes(width):
    rng = random.Random(width)
    value = rng.getrandbits(width) | 1 << (width - 1)  # top bit set
    for offset in range(8):
        prefix = rng.getrandbits(offset) if offset else 0
        wide, narrow = BitWriter(), BitWriter()
        wide.write(prefix, offset)
        wide.write(value, width)
        for i in reversed(range(offset)):
            narrow.write(prefix >> i & 1, 1)
        for i in reversed(range(width)):
            narrow.write(value >> i & 1, 1)
        assert wide.bits_written == narrow.bits_written == offset + width
        assert wide.getvalue() == narrow.getvalue()
        # getvalue pads a copy: later writes continue from the unpadded bits.
        wide.write(0b10, 2)
        narrow.write(0b10, 2)
        assert wide.getvalue() == narrow.getvalue()


def test_bitreader_roundtrip():
    w = BitWriter()
    w.write(0xABC, 12)
    w.write(0x5, 3)
    r = BitReader(w.getvalue())
    assert r.read(12) == 0xABC
    assert r.read(3) == 0x5


def test_bitreader_eof():
    r = BitReader(b"\xff")
    r.read(8)
    with pytest.raises(EOFError):
        r.read_bit()


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 16), st.integers(0, 2**16 - 1)), min_size=1, max_size=30))
def test_bitio_roundtrip_property(chunks):
    w = BitWriter()
    expected = []
    for nbits, value in chunks:
        value &= (1 << nbits) - 1 if nbits else 0
        w.write(value, nbits)
        expected.append((nbits, value))
    r = BitReader(w.getvalue())
    for nbits, value in expected:
        assert r.read(nbits) == value


# -- Huffman tables -----------------------------------------------------------------


def test_standard_tables_wellformed():
    assert sum(DC_LUMA_BITS) == len(DC_LUMA_VALS) == 12
    assert sum(AC_LUMA_BITS) == len(AC_LUMA_VALS) == 162


def test_chroma_huffman_tables_wellformed():
    assert len(STD_DC_CHROMA.encode_map) == 12
    assert len(STD_AC_CHROMA.encode_map) == 162


def test_table_validation():
    with pytest.raises(ValueError, match="16 entries"):
        HuffmanTable([0] * 15, [])
    with pytest.raises(ValueError, match="HUFFVAL"):
        HuffmanTable([0, 1] + [0] * 14, [1, 2])
    with pytest.raises(ValueError, match="duplicate"):
        HuffmanTable([0, 2] + [0] * 14, [5, 5])


def test_canonical_codes_are_prefix_free():
    for table in (STD_DC_LUMA, STD_AC_LUMA):
        codes = {
            format(code, f"0{length}b") for code, length in table.encode_map.values()
        }
        assert len(codes) == len(table.encode_map)
        for a in codes:
            for b in codes:
                if a is not b and len(a) < len(b):
                    assert not b.startswith(a), f"{a} prefixes {b}"


def test_encode_decode_symbol_roundtrip():
    w = BitWriter()
    symbols = [0, 5, 11, 3, 0]
    for s in symbols:
        STD_DC_LUMA.encode(w, s)
    r = BitReader(w.getvalue())
    assert [STD_DC_LUMA.decode(r) for _ in symbols] == symbols


def test_encode_unknown_symbol_rejected():
    with pytest.raises(ValueError, match="not in table"):
        STD_DC_LUMA.encode(BitWriter(), 99)


@settings(max_examples=50)
@given(st.lists(st.sampled_from(AC_LUMA_VALS), min_size=1, max_size=100))
def test_ac_symbol_roundtrip_property(symbols):
    w = BitWriter()
    for s in symbols:
        STD_AC_LUMA.encode(w, s)
    r = BitReader(w.getvalue())
    assert [STD_AC_LUMA.decode(r) for _ in symbols] == symbols


# -- magnitude coding ----------------------------------------------------------------


def test_magnitude_category():
    assert magnitude_category(0) == 0
    assert magnitude_category(1) == magnitude_category(-1) == 1
    assert magnitude_category(255) == 8
    assert magnitude_category(-1024) == 11


@given(st.integers(-32767, 32767))
def test_magnitude_roundtrip_property(value):
    category = magnitude_category(value)
    w = BitWriter()
    encode_magnitude(w, value, category)
    r = BitReader(w.getvalue() or b"\xff")
    assert decode_magnitude(r, category) == value
