"""The decode tables against their first, per-window builders.

``HuffmanTable.lut`` and the per-symbol loop's packed tables
(``tests/mjpeg/reference_decode_loop.py``) fill each code's 2^(16-L)
windows with one shared int by walking the canonical code intervals,
and ``HuffmanTable.plane_tables`` fills the plane decode's numpy tables
code by code.  Every table must equal the reference built the old way
(``tests/mjpeg/reference_huffman.py``), entry for entry, and each list
must hold one int object per code rather than one per window.
"""

import numpy as np
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

from tests.mjpeg import reference_decode_loop
from tests.mjpeg.reference_huffman import REFERENCE_BUILDERS, reference_plane_tables

TABLES = [STD_DC_LUMA, STD_AC_LUMA, STD_DC_CHROMA, STD_AC_CHROMA]

#: How each table named in ``REFERENCE_BUILDERS`` is built today.
BUILT = {
    "lut": lambda table: table.lut,
    "lut_dc": reference_decode_loop.lut_dc,
    "lut_ac": reference_decode_loop.lut_ac,
}


def fresh(table):
    """An unbuilt copy, so each test builds the tables it checks."""
    return HuffmanTable(table.bits, table.values, name=table.name)


@pytest.mark.parametrize("name", sorted(REFERENCE_BUILDERS))
@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_table_equals_the_per_window_reference(table, name):
    table = fresh(table)
    built = BUILT[name](table)
    assert len(built) == 1 << 16
    assert built == REFERENCE_BUILDERS[name](table)


@pytest.mark.parametrize("name", ["lut", "lut_dc", "lut_ac"])
@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_code_tables_hold_one_object_per_code(table, name):
    # Each code's windows share one int; the invalid windows share 0.
    table = fresh(table)
    assert len({id(v) for v in BUILT[name](table)}) <= len(table.values) + 1


@pytest.mark.parametrize(
    "dc_table, ac_table",
    [(STD_DC_LUMA, STD_AC_LUMA), (STD_DC_CHROMA, STD_AC_CHROMA)],
    ids=["luma", "chroma"],
)
def test_plane_tables_equal_the_per_window_reference(dc_table, ac_table):
    dc_table, ac_table = fresh(dc_table), fresh(ac_table)
    steps, info = dc_table.plane_tables(ac_table)
    ref_steps, ref_info = reference_plane_tables(dc_table, ac_table)
    # 512 KB of int32 step pairs, 256 KB of int16 symbol fields.
    assert steps.dtype == np.int64 and steps.shape == (1 << 16,)
    assert info.dtype == np.int16 and info.shape == (1 << 17,)
    np.testing.assert_array_equal(steps.view(np.int32).reshape(-1, 2), ref_steps)
    np.testing.assert_array_equal(info.reshape(-1, 2), ref_info)
    # Built once per (DC, AC) pair, and shared read-only.
    assert dc_table.plane_tables(ac_table)[0] is steps
    assert not steps.flags.writeable and not info.flags.writeable


def test_plane_decode_never_builds_the_symbol_table():
    dc, ac = fresh(STD_DC_LUMA), fresh(STD_AC_LUMA)
    # one block: DC difference 0 (code 00), then EOB (code 1010)
    decoded = decode_plane(BitReader(bytes([0b00101011])), 1, dc, ac)
    assert not decoded.any()
    assert dc._lut is None and ac._lut is None
