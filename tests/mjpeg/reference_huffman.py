"""Reference builders for ``HuffmanTable``'s 2^16-entry decode tables,
kept the way they were first written.

``lut`` came from one ``np.repeat`` over the canonical code intervals,
converted with ``.tolist()`` (one int object per window).  ``lut_dc``
and ``lut_ac`` were derived from it by a Python loop over all 2^16
windows; ``reference_plane_tables`` derives the plane decode's
``HuffmanTable.plane_tables`` the same way.  The tables in use are built
from the code intervals directly and must equal these entry for entry;
``tests/mjpeg/test_huffman_tables.py`` holds them to that.
"""

from typing import List

import numpy as np

from repro.mjpeg.huffman import EOB, NO_CODE


def reference_lut(table) -> List[int]:
    packed: List[int] = []
    widths: List[int] = []
    for length in range(1, 17):
        n = table.bits[length - 1]
        k = table._valptr[length]
        for i in range(n):
            packed.append((length << 8) | table.values[k + i])
            widths.append(1 << (16 - length))
    if packed:
        lut = np.repeat(np.asarray(packed, dtype=np.int32), np.asarray(widths, dtype=np.int64))
    else:
        lut = np.zeros(0, dtype=np.int32)
    if lut.shape[0] < 1 << 16:
        lut = np.concatenate([lut, np.zeros((1 << 16) - lut.shape[0], dtype=np.int32)])
    return lut.tolist()


def reference_lut_dc(table) -> List[int]:
    out = [0] * (1 << 16)
    for window, entry in enumerate(reference_lut(table)):
        if entry:
            length = entry >> 8
            category = entry & 0xFF
            out[window] = ((length + category) << 16) | category
    return out


def reference_lut_ac(table) -> List[int]:
    out = [0] * (1 << 16)
    for window, entry in enumerate(reference_lut(table)):
        if entry:
            length = entry >> 8
            symbol = entry & 0xFF
            if symbol == EOB:
                out[window] = -length
            else:
                run = symbol >> 4
                size = symbol & 0x0F
                out[window] = ((length + size) << 16) | (run << 8) | size
    return out


REFERENCE_BUILDERS = {
    "lut": reference_lut,
    "lut_dc": reference_lut_dc,
    "lut_ac": reference_lut_ac,
}


def reference_plane_tables(dc_table, ac_table):
    """``dc_table.plane_tables(ac_table)`` window by window from ``lut``:
    the int32 DC and AC state steps (``NO_CODE`` where no code starts)
    and the int16 ``inc | length << 5 | shift << 10`` symbol fields."""
    steps = np.full((1 << 16, 2), NO_CODE, dtype=np.int32)
    info = np.zeros((1 << 16, 2), dtype=np.int16)
    for window, entry in enumerate(reference_lut(dc_table)):
        if entry:
            length, category = entry >> 8, entry & 0xFF
            steps[window, 0] = 2 * (length + category) + 1
            info[window, 0] = (length << 5) | ((16 - category) << 10)
    for window, entry in enumerate(reference_lut(ac_table)):
        if entry:
            length, symbol = entry >> 8, entry & 0xFF
            run, size = symbol >> 4, symbol & 0x0F
            if symbol == EOB:
                steps[window, 1] = 2 * length - 1
            else:
                steps[window, 1] = 2 * (length + size)
            info[window, 1] = (run + 1) | (length << 5) | ((16 - size) << 10)
    return steps, info
