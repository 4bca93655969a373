"""The decode tables against their first, per-window builders.

``HuffmanTable`` fills each code's 2^(16-L) windows with one shared int
by walking the canonical code intervals.  Every table must equal the
reference built the old way (``tests/mjpeg/reference_huffman.py``),
entry for entry, and hold one int object per code rather than one per
window.
"""

import pytest

from repro.mjpeg.bitio import BitReader
from repro.mjpeg.decoder import decode_plane
from repro.mjpeg.huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    HuffmanTable,
)

from tests.mjpeg.reference_huffman import REFERENCE_BUILDERS

TABLES = [STD_DC_LUMA, STD_AC_LUMA, STD_DC_CHROMA, STD_AC_CHROMA]


def fresh(table):
    """An unbuilt copy, so each test builds the tables it checks."""
    return HuffmanTable(table.bits, table.values, name=table.name)


@pytest.mark.parametrize("name", sorted(REFERENCE_BUILDERS))
@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_table_equals_the_per_window_reference(table, name):
    table = fresh(table)
    built = getattr(table, name)
    assert len(built) == 1 << 16
    assert built == REFERENCE_BUILDERS[name](table)


@pytest.mark.parametrize("name", ["lut", "lut_dc", "lut_ac"])
@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_code_tables_hold_one_object_per_code(table, name):
    # Each code's windows share one int; the invalid windows share 0.
    table = fresh(table)
    assert len({id(v) for v in getattr(table, name)}) <= len(table.values) + 1


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_value_table_shares_objects_across_windows(table):
    # One object per (code, magnitude) run: at most 1 023 for the
    # standard tables, never one per window.
    assert len({id(v) for v in fresh(table).lut_ac_value}) < 2048


def test_plane_decode_never_builds_the_symbol_table():
    dc, ac = fresh(STD_DC_LUMA), fresh(STD_AC_LUMA)
    # one block: DC difference 0 (code 00), then EOB (code 1010)
    decoded = decode_plane(BitReader(bytes([0b00101011])), 1, dc, ac)
    assert not decoded.any()
    assert dc._lut is None and ac._lut is None
