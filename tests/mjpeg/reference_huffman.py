"""Reference builders for ``HuffmanTable``'s 2^16-entry decode tables,
kept the way they were first written.

``lut`` came from one ``np.repeat`` over the canonical code intervals,
converted with ``.tolist()`` (one int object per window).  ``lut_dc``
and ``lut_ac`` were derived from it by a Python loop over all 2^16
windows, and ``lut_ac_value`` by a walk over ``lut_ac``.  The shipped
tables are built from the code intervals directly and must equal these
entry for entry; ``tests/mjpeg/test_huffman_tables.py`` holds them to
that.
"""

from typing import List

import numpy as np

from repro.mjpeg.huffman import EOB


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


def reference_lut_ac_value(table) -> List[int]:
    packed = reference_lut_ac(table)
    out = [0] * (1 << 16)
    window = 0
    while window < 1 << 16:
        entry = packed[window]
        need = entry >> 16
        size = entry & 0xFF
        if entry <= 0 or not size or need > 16:
            window += 1
            continue
        span = 1 << (16 - need)
        value = (window >> (16 - need)) & ((1 << size) - 1)
        if value < 1 << (size - 1):
            value -= (1 << size) - 1
        out[window : window + span] = [value] * span
        window += span
    return out


REFERENCE_BUILDERS = {
    "lut": reference_lut,
    "lut_dc": reference_lut_dc,
    "lut_ac": reference_lut_ac,
    "lut_ac_value": reference_lut_ac_value,
}
