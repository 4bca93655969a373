"""Canonical Huffman coding as specified by JPEG (ITU-T T.81).

Tables are defined by the standard's ``(BITS, HUFFVAL)`` pair: BITS[l] is
the number of codes of length ``l+1``; HUFFVAL lists the symbol for each
code in canonical order.

Decoding is a single flat-table lookup: a lazily built 2^16-entry LUT
maps the next 16 bits of the stream (1-padded past EOF) directly to a
packed ``(code_length << 8) | symbol`` entry, so each symbol costs one
``peek16`` + one list index + one ``skip``.  The MINCODE/MAXCODE/VALPTR
walk of figure F.16 is retained as :meth:`HuffmanTable.decode_walk` --
the bit-exact reference the LUT is property-tested against, and the
pre-LUT baseline the ``repro bench`` entropy microbench compares to.

The shipped tables are the Annex K "typical" luminance tables; since the
encoder and decoder share them, correctness is self-contained.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
        self._lut_dc: Optional[List[int]] = None
        self._lut_ac: Optional[List[int]] = None
        self._lut_ac_value: Optional[List[int]] = None

    @property
    def lut(self) -> List[int]:
        """The 2^16-entry decode table: index by the next 16 bits of the
        stream; entry is ``(code_length << 8) | symbol``, 0 = invalid."""
        return self._lut if self._lut is not None else self._build_lut()

    @property
    def lut_dc(self) -> List[int]:
        """2^16-entry table specialised for DC decode: the symbol *is* the
        magnitude category, so each entry packs the total consumption up
        front as ``((code_length + category) << 16) | category`` (0 =
        invalid).  ``decode_plane`` reads code and magnitude in one step."""
        if self._lut_dc is None:
            base = self.lut
            out = [0] * (1 << 16)
            for window, entry in enumerate(base):
                if entry:
                    length = entry >> 8
                    category = entry & 0xFF
                    out[window] = ((length + category) << 16) | category
            self._lut_dc = out
        return self._lut_dc

    @property
    def lut_ac(self) -> List[int]:
        """2^16-entry table specialised for AC decode.  Entries are
        ``((code_length + size) << 16) | (run << 8) | size`` for ordinary
        run/size symbols (ZRL included: run=15, size=0), ``-code_length``
        for EOB, and 0 for an invalid window."""
        if self._lut_ac is None:
            base = self.lut
            out = [0] * (1 << 16)
            for window, entry in enumerate(base):
                if entry:
                    length = entry >> 8
                    symbol = entry & 0xFF
                    if symbol == EOB:
                        out[window] = -length
                    else:
                        run = symbol >> 4
                        size = symbol & 0x0F
                        out[window] = ((length + size) << 16) | (run << 8) | size
            self._lut_ac = out
        return self._lut_ac

    @property
    def lut_ac_value(self) -> List[int]:
        """2^16-entry companion of :attr:`lut_ac`: for a window whose AC
        code and magnitude bits both fit in its 16 bits, the signed
        coefficient (EXTEND applied); 0 for every other window (EOB,
        ZRL, a symbol that needs more than 16 bits, invalid).  A valid
        coefficient is never 0, so ``decode_plane`` reads the value in
        one index and, on 0, cuts the magnitude from its bit register.  Equal values
        share one int object (every window a code-plus-magnitude prefix
        owns is filled by one slice assignment)."""
        if self._lut_ac_value is None:
            packed = self.lut_ac
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
            self._lut_ac_value = out
        return self._lut_ac_value

    def _build_lut(self) -> List[int]:
        # Canonical codes in (length asc, code asc) order cover contiguous
        # LUT intervals starting at 0: each code of length L owns the
        # 2^(16-L) windows sharing its prefix.  Build with np.repeat and
        # convert to a plain list for O(1) unboxed scalar indexing.
        import numpy as np

        packed: List[int] = []
        widths: List[int] = []
        for length in range(1, 17):
            n = self.bits[length - 1]
            k = self._valptr[length]
            for i in range(n):
                packed.append((length << 8) | self.values[k + i])
                widths.append(1 << (16 - length))
        if packed:
            lut = np.repeat(
                np.asarray(packed, dtype=np.int32), np.asarray(widths, dtype=np.int64)
            )
        else:
            lut = np.zeros(0, dtype=np.int32)
        if lut.shape[0] < 1 << 16:
            lut = np.concatenate([lut, np.zeros((1 << 16) - lut.shape[0], dtype=np.int32)])
        self._lut = lut.tolist()
        return self._lut

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
        lut = self._lut
        if lut is None:
            lut = self._build_lut()
        entry = lut[reader.peek16()]
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
