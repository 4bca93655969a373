"""The vectorised plane encoder against the per-symbol reference.

``encode_plane`` codes a whole plane with array operations and hands it
to the writer as one wide write; ``encode_plane_reference`` writes one
Huffman code or magnitude at a time.  Payload and ``bits_written`` must
be identical on every shape the entropy coder distinguishes, at any
starting bit offset.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mjpeg import generate_stream
from repro.mjpeg.bitio import BitReader, BitWriter
from repro.mjpeg.decoder import decode_plane_reference
from repro.mjpeg.encoder import encode_plane
from repro.mjpeg.huffman import (
    AC_LUMA_BITS,
    AC_LUMA_VALS,
    EOB,
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    ZRL,
    HuffmanTable,
)

from tests.mjpeg.scalar_encoder import encode_plane_reference

LUMA = (STD_DC_LUMA, STD_AC_LUMA)
CHROMA = (STD_DC_CHROMA, STD_AC_CHROMA)


def assert_same_bits(planes, offset=0):
    """Encode ``planes`` (a list of (qzz, dc_table, ac_table)) back to
    back after ``offset`` one-bits, with both encoders."""
    fast, ref = BitWriter(), BitWriter()
    for writer in (fast, ref):
        writer.write((1 << offset) - 1, offset)
    for qzz, dc_table, ac_table in planes:
        encode_plane(fast, qzz, dc_table, ac_table)
        encode_plane_reference(ref, qzz, dc_table, ac_table)
    assert fast.bits_written == ref.bits_written
    assert fast.getvalue() == ref.getvalue()
    return fast


def blocks_with(*coefficients, n_blocks=1):
    """An (n_blocks, 64) plane with ``(block, index, value)`` set."""
    qzz = np.zeros((n_blocks, 64), dtype=np.int32)
    for block, index, value in coefficients:
        qzz[block, index] = value
    return qzz


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_stream_planes_match_the_reference(seed):
    stream = generate_stream(4, 96, 96, 75, seed=seed)
    for record in stream:
        writer = assert_same_bits([(record.frame.qcoefs_zz, *LUMA)])
        writer.align()
        assert writer.getvalue() == record.frame.payload
        assert writer.bits_written == record.n_bits


CRAFTED = {
    # A run of 16, 32 or 48+ zeros before the first AC needs 1-3 ZRLs.
    "zrl1-first": blocks_with((0, 17, 3)),
    "zrl2-first": blocks_with((0, 33, -3)),
    "zrl3-first": blocks_with((0, 49, 5)),
    "zrl3-to-63": blocks_with((0, 63, 1)),
    # The same runs after an earlier AC.
    "zrl1-after": blocks_with((0, 2, 1), (0, 19, -1)),
    "zrl2-after": blocks_with((0, 2, 1), (0, 40, 7)),
    "zrl3-after": blocks_with((0, 1, 1), (0, 50, -9)),
    "run15": blocks_with((0, 1, 2), (0, 17, 2)),
    "all-zero": blocks_with(n_blocks=5),
    "all-zero-between": blocks_with((0, 0, 40), (2, 5, -4), (3, 0, 40), n_blocks=4),
    "last-at-63": blocks_with((0, 0, 7), (0, 3, 2), (0, 63, -1), (1, 63, 2), n_blocks=2),
    "every-ac-set": np.tile(np.arange(64, dtype=np.int32) % 7 + 1, (2, 1)),
    # DC diffs of 1024 and -2047 (category 11) and AC magnitudes 1023.
    "dc-category-11": blocks_with((0, 0, 1024), (1, 0, -1023), (1, 9, 1023), (2, 4, -1023), n_blocks=3),
}


@pytest.mark.parametrize("tables", [LUMA, CHROMA], ids=["luma", "chroma"])
@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_shapes_match_the_reference(name, tables):
    for offset in (0, 3):
        assert_same_bits([(CRAFTED[name], *tables)], offset)


def test_dc_category_11_is_reached():
    qzz = CRAFTED["dc-category-11"]
    diffs = np.diff(qzz[:, 0].astype(np.int64), prepend=0)
    assert [abs(int(d)).bit_length() for d in diffs] == [11, 11, 10]


def test_empty_plane_writes_nothing():
    writer = BitWriter()
    writer.write(0b101, 3)
    encode_plane(writer, np.zeros((0, 64), dtype=np.int32))
    assert writer.bits_written == 3
    assert writer.getvalue() == bytes([0b10111111])
    assert_same_bits([(np.zeros((0, 64), dtype=np.int32), *LUMA)], offset=5)


def test_back_to_back_planes_at_an_unaligned_offset():
    rng = np.random.default_rng(3)
    planes = []
    for tables in (LUMA, CHROMA, CHROMA):
        qzz = np.zeros((6, 64), dtype=np.int32)
        mask = rng.random(qzz.shape) < 0.2
        qzz[mask] = rng.integers(-300, 300, int(mask.sum()))
        planes.append((qzz, *tables))
    for offset in range(1, 8):
        assert_same_bits(planes, offset)


coefficient = st.integers(-1023, 1023).filter(bool)
block = st.tuples(
    st.integers(-1023, 1023),
    st.lists(st.tuples(st.integers(1, 63), coefficient), max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(block, max_size=8),
    st.integers(0, 7),
    st.sampled_from([LUMA, CHROMA]),
)
def test_random_planes_match_the_reference(blocks, offset, tables):
    qzz = np.zeros((len(blocks), 64), dtype=np.int32)
    for b, (dc, acs) in enumerate(blocks):
        qzz[b, 0] = dc
        for index, value in acs:
            qzz[b, index] = value
    assert_same_bits([(qzz, *tables)], offset)


# -- out-of-table coefficients ---------------------------------------------


def test_ac_value_beyond_the_table_raises_value_error():
    qzz = blocks_with((2, 5, 2048), n_blocks=3)
    with pytest.raises(ValueError, match=r"symbol 0x4c not in table 'ac_luma' \(block 2\)"):
        encode_plane(BitWriter(), qzz)
    with pytest.raises(KeyError):  # what the per-symbol loop does instead
        encode_plane_reference(BitWriter(), qzz)


def test_dc_diff_beyond_the_table_raises_value_error():
    qzz = blocks_with((1, 0, 5000), n_blocks=2)
    with pytest.raises(ValueError, match=r"symbol 0xd not in table 'dc_chroma' \(block 1\)"):
        encode_plane(BitWriter(), qzz, *CHROMA)


def test_magnitude_category_beyond_four_bits_raises_value_error():
    # Or-ed into a symbol unchecked, category 17 would alias the real
    # run/size symbol 0x11 and write a stream no decoder reads back.
    symbol = (0 << 4) | (70000).bit_length()  # run 0, category 17
    assert symbol == 0x11 and symbol in STD_AC_LUMA.encode_map
    with pytest.raises(ValueError, match=r"category 17 .* 'ac_luma' \(block 1\)"):
        encode_plane(BitWriter(), blocks_with((1, 1, 70000), n_blocks=2))


def _table_without(symbol, name):
    values = [0xFB if v == symbol else v for v in AC_LUMA_VALS]
    return HuffmanTable(AC_LUMA_BITS, values, name=name)


def assert_round_trips(qzz, ac_table):
    """Encode with a table the reference cannot load and decode back."""
    writer = BitWriter()
    encode_plane(writer, qzz, STD_DC_LUMA, ac_table)
    decoded = decode_plane_reference(
        BitReader(writer.getvalue()), qzz.shape[0], STD_DC_LUMA, ac_table
    )
    np.testing.assert_array_equal(decoded, qzz)


def test_table_lacking_eob_raises_value_error_where_eob_is_needed():
    table = _table_without(EOB, "no_eob")
    full = np.ones((1, 64), dtype=np.int32)  # last AC at 63: no EOB
    assert_round_trips(full, table)
    with pytest.raises(ValueError, match=r"symbol 0x0 not in table 'no_eob' \(block 1\)"):
        encode_plane(BitWriter(), np.vstack([full, np.zeros((1, 64), np.int32)]), STD_DC_LUMA, table)


def test_table_lacking_zrl_raises_value_error_where_zrl_is_needed():
    table = _table_without(ZRL, "no_zrl")
    assert_round_trips(blocks_with((0, 16, 1)), table)  # a run of 15 zeros
    with pytest.raises(ValueError, match=r"symbol 0xf0 not in table 'no_zrl' \(block 1\)"):
        encode_plane(BitWriter(), blocks_with((1, 20, 1), n_blocks=2), STD_DC_LUMA, table)
