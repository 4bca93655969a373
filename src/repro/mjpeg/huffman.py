"""Canonical Huffman coding as specified by JPEG (ITU-T T.81).

Tables are defined by the standard's ``(BITS, HUFFVAL)`` pair: BITS[l] is
the number of codes of length ``l+1``; HUFFVAL lists the symbol for each
code in canonical order.

Every decode table is indexed by the next 16 bits of the stream
(1-padded past EOF): a code of length L owns the 2^(16-L) windows that
start with it.  One symbol at a time, :meth:`HuffmanTable.decode` reads
a lazily built 2^16-entry list of ``(code_length << 8) | symbol``
entries: one ``peek16``, one list index, one ``skip``.  A whole plane is
decoded from :meth:`HuffmanTable.plane_tables`, two numpy arrays per
(DC, AC) table pair built on first use: the decode-state step and the
coefficient fields of every window (see
``repro.mjpeg.decoder.decode_plane``).  The
MINCODE/MAXCODE/VALPTR walk of figure F.16 is retained as
:meth:`HuffmanTable.decode_walk` -- the bit-exact reference the tables
are property-tested against, and the pre-LUT reference of the
entropy-decode gate in ``benchmarks/test_perf_gates.py``.

The shipped tables are the Annex K "typical" luminance tables; since the
encoder and decoder share them, correctness is self-contained.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.mjpeg.bitio import BitReader, BitWriter

# Annex K, table K.3 -- DC luminance.
DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMA_VALS = list(range(12))

# Annex K, table K.5 -- AC luminance.
AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

# Annex K, table K.4 -- DC chrominance.
DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROMA_VALS = list(range(12))

# Annex K, table K.6 -- AC chrominance.
AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

#: End-of-block and zero-run-length AC symbols.
EOB = 0x00
ZRL = 0xF0

#: The state step of a window no code starts: it lands past the
#: sentinel of every segment ``decode_plane`` takes (up to 2^29 - 1 bits).
NO_CODE = 1 << 30


class HuffmanTable:
    """A canonical Huffman code built from a (BITS, HUFFVAL) pair."""

    def __init__(self, bits: Sequence[int], values: Sequence[int], name: str = "") -> None:
        if len(bits) != 16:
            raise ValueError(f"BITS must have 16 entries, got {len(bits)}")
        if sum(bits) != len(values):
            raise ValueError(f"sum(BITS)={sum(bits)} but {len(values)} HUFFVAL entries")
        self.name = name
        self.bits = list(bits)
        self.values = list(values)
        # Canonical code assignment (T.81 figure C.2): codes of each
        # length are consecutive, doubling at each length increase.
        self.encode_map: Dict[int, Tuple[int, int]] = {}  # symbol -> (code, length)
        self._mincode = [0] * 17
        self._maxcode = [-1] * 17
        self._valptr = [0] * 17
        code = 0
        k = 0
        for length in range(1, 17):
            n = bits[length - 1]
            self._valptr[length] = k
            self._mincode[length] = code
            for _ in range(n):
                symbol = values[k]
                if symbol in self.encode_map:
                    raise ValueError(f"duplicate symbol {symbol:#x} in table {name!r}")
                self.encode_map[symbol] = (code, length)
                code += 1
                k += 1
            self._maxcode[length] = code - 1 if n else -1
            code <<= 1
            if code > (1 << length) * 2:
                raise ValueError(f"over-subscribed code space in table {name!r}")
        self._lut: Optional[List[int]] = None  # built on first decode
        self._plane_tables: Dict[HuffmanTable, tuple] = {}  # per AC table
        self._encode_arrays = None  # built on first vectorised encode

    @property
    def lut(self) -> List[int]:
        """The 2^16-entry decode table: index by the next 16 bits of the
        stream; entry is ``(code_length << 8) | symbol``, 0 = invalid."""
        if self._lut is None:
            self._lut = self._window_table(lambda length, symbol: (length << 8) | symbol)
        return self._lut

    def plane_tables(self, ac_table: HuffmanTable):
        """``(steps, info)``: the per-window tables ``decode_plane`` reads
        for a plane coded with this DC table and ``ac_table``, built on
        the first such plane and kept here per AC table.

        A decode state is ``2 * bit_offset + mode``, where mode 0 expects
        a DC symbol and mode 1 an AC symbol.  ``steps`` holds, for each
        16-bit window, the DC and the AC state step as two int32 halves
        of one int64, so one gather of a plane's windows yields the
        successor step of every state: ``2 * need + 1`` from DC to AC
        (``need`` is the code length plus the magnitude bits), ``2 *
        need`` from AC to AC for a run/size or ZRL symbol, ``2 *
        code_length - 1`` from EOB back to DC, and :data:`NO_CODE` where
        no code starts the window (512 KB).

        ``info`` is indexed by ``(window << 1) | mode`` and packs what a
        completed symbol adds to the plane into an int16, ``inc | length
        << 5 | shift << 10`` (256 KB): ``inc`` is how far the symbol
        moves the zigzag index (``run + 1``, so 16 for ZRL and 1 for EOB;
        0 for DC), ``length`` is the code length and ``shift`` is 16
        minus the magnitude bits.  Both are filled code by code from
        :meth:`_code_windows` and are read-only: every plane shares them.
        """
        tables = self._plane_tables.get(ac_table)
        if tables is None:
            import numpy as np

            steps = np.full((1 << 16, 2), NO_CODE, dtype=np.int32)
            info = np.zeros((1 << 16, 2), dtype=np.int16)
            for window, length, category in self._code_windows():
                span = slice(window, window + (1 << (16 - length)))
                steps[span, 0] = 2 * (length + category) + 1
                info[span, 0] = length << 5 | (16 - category) << 10
            for window, length, symbol in ac_table._code_windows():
                span = slice(window, window + (1 << (16 - length)))
                size = symbol & 0x0F
                steps[span, 1] = 2 * length - 1 if symbol == EOB else 2 * (length + size)
                info[span, 1] = (symbol >> 4) + 1 | length << 5 | (16 - size) << 10
            tables = steps.view(np.int64).ravel(), info.ravel()
            for table in tables:
                table.flags.writeable = False
            self._plane_tables[ac_table] = tables
        return tables

    @property
    def encode_arrays(self):
        """``(codes, lengths)``: two 256-entry int64 arrays indexed by
        symbol, the vectorised form of :attr:`encode_map` that
        ``encode_plane`` gathers from.  A length of 0 marks a symbol the
        table lacks (every real code is at least one bit long)."""
        if self._encode_arrays is None:
            import numpy as np

            codes = np.zeros(256, dtype=np.int64)
            lengths = np.zeros(256, dtype=np.int64)
            for symbol, (code, length) in self.encode_map.items():
                codes[symbol] = code
                lengths[symbol] = length
            self._encode_arrays = (codes, lengths)
        return self._encode_arrays

    def _code_windows(self) -> Iterator[Tuple[int, int, int]]:
        """``(first_window, code_length, symbol)`` of every code.  In
        canonical (length asc, code asc) order the codes cover contiguous
        window intervals from 0: a code of length L owns the 2^(16-L)
        windows that start with it."""
        window = 0
        for length in range(1, 17):
            k = self._valptr[length]
            for symbol in self.values[k : k + self.bits[length - 1]]:
                yield window, length, symbol
                window += 1 << (16 - length)

    def _window_table(self, entry: Callable[[int, int], int]) -> List[int]:
        """A 2^16-entry list mapping each code's windows to
        ``entry(code_length, symbol)`` and every other window to 0.  The
        windows of one code share one int object, so the table costs its
        list slots and one object per code, not one per window."""
        out = [0] * (1 << 16)
        for window, length, symbol in self._code_windows():
            width = 1 << (16 - length)
            out[window : window + width] = [entry(length, symbol)] * width
        return out

    def encode(self, writer: BitWriter, symbol: int) -> int:
        """Write a symbol's code; returns the number of bits emitted."""
        try:
            code, length = self.encode_map[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol:#x} not in table {self.name!r}") from None
        writer.write(code, length)
        return length

    def decode(self, reader: BitReader) -> int:
        """Read one symbol via the flat 16-bit LUT.

        Bit-exact with :meth:`decode_walk`, including error behaviour:
        EOFError when the stream ends mid-code, ValueError on a window
        that matches no code."""
        entry = self.lut[reader.peek16()]
        if entry:
            reader.skip(entry >> 8)  # EOFError when the code overruns the data
            return entry & 0xFF
        if reader.bits_remaining() >= 16:
            raise ValueError(f"invalid Huffman code in table {self.name!r}")
        # Fewer than 16 real bits and none of their prefixes is a code:
        # the walk would run out of bits before resolving.
        raise EOFError("bit stream exhausted")

    def decode_walk(self, reader: BitReader) -> int:
        """Read one symbol (T.81 figure F.16 MINCODE/MAXCODE walk).

        The pre-LUT reference path: O(code length) per symbol.  Kept for
        property-testing the LUT and as the benchmark baseline."""
        code = reader.read_bit()
        length = 1
        while code > self._maxcode[length] or self.bits[length - 1] == 0:
            if length >= 16:
                raise ValueError(f"invalid Huffman code in table {self.name!r}")
            code = (code << 1) | reader.read_bit()
            length += 1
        return self.values[self._valptr[length] + (code - self._mincode[length])]


#: The standard tables, shared by encoder and decoder.
STD_DC_LUMA = HuffmanTable(DC_LUMA_BITS, DC_LUMA_VALS, name="dc_luma")
STD_AC_LUMA = HuffmanTable(AC_LUMA_BITS, AC_LUMA_VALS, name="ac_luma")
STD_DC_CHROMA = HuffmanTable(DC_CHROMA_BITS, DC_CHROMA_VALS, name="dc_chroma")
STD_AC_CHROMA = HuffmanTable(AC_CHROMA_BITS, AC_CHROMA_VALS, name="ac_chroma")


def magnitude_category(value: int) -> int:
    """JPEG SSSS category: number of bits to represent |value|."""
    return int(abs(value)).bit_length()


def encode_magnitude(writer: BitWriter, value: int, category: int) -> None:
    """Write the additional bits for ``value`` in the given category."""
    if category == 0:
        return
    if value < 0:
        value = value + (1 << category) - 1
    writer.write(value, category)


def decode_magnitude(reader: BitReader, category: int) -> int:
    """Inverse of :func:`encode_magnitude` (T.81 EXTEND procedure)."""
    if category == 0:
        return 0
    value = reader.read(category)
    if value < (1 << (category - 1)):
        value -= (1 << category) - 1
    return value
