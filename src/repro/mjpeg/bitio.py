"""Bit-level I/O for the entropy-coded segment.

The reader keeps a 64-bit-bounded accumulator refilled bytewise with
``int.from_bytes``, so multi-bit reads, 16-bit peeks (for LUT Huffman
decode) and skips are O(1) integer ops instead of per-bit Python loops.
"""

from __future__ import annotations


class BitWriter:
    """MSB-first bit accumulator.

    ``write`` accepts values of any width (Python ints are unbounded);
    each write flushes every whole byte with one ``int.to_bytes``, so a
    wide write (a whole entropy-coded plane) costs O(width).
    """

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0
        self.bits_written = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` of ``value``, MSB first."""
        if nbits < 0:
            raise ValueError(f"nbits out of range: {nbits}")
        if nbits == 0:
            return
        if value < 0 or value >= (1 << nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        acc = (self._acc << nbits) | value
        pending = self._nbits + nbits
        self.bits_written += nbits
        if pending >= 8:
            keep = pending & 7
            self._out += (acc >> keep).to_bytes(pending >> 3, "big")
            acc &= (1 << keep) - 1
            pending = keep
        self._acc = acc
        self._nbits = pending

    def align(self) -> None:
        """Pad to the next byte boundary with 1-bits (the JPEG stuffing
        convention).  The pad bits are not counted in ``bits_written``.
        No-op when already aligned."""
        if self._nbits:
            pad = 8 - self._nbits
            self._out.append(((self._acc << pad) | ((1 << pad) - 1)) & 0xFF)
            self._acc = 0
            self._nbits = 0

    def getvalue(self) -> bytes:
        """Finish the stream, padding the final byte with 1-bits (JPEG
        convention) -- the padding is not counted in ``bits_written``.
        Non-destructive: further writes continue from the unpadded state."""
        out = bytearray(self._out)
        if self._nbits:
            pad = 8 - self._nbits
            out.append(((self._acc << pad) | ((1 << pad) - 1)) & 0xFF)
        return bytes(out)


class BitReader:
    """MSB-first bit consumer over a bytes object."""

    __slots__ = ("_data", "_nbytes", "_bytepos", "_acc", "_accbits")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._nbytes = len(data)
        self._bytepos = 0  # index of the next byte to load into the accumulator
        self._acc = 0      # low _accbits bits hold unread data, MSB first
        self._accbits = 0

    @property
    def bits_read(self) -> int:
        """Number of bits consumed so far."""
        return self._bytepos * 8 - self._accbits

    def bits_remaining(self) -> int:
        """Number of unread bits left in the stream."""
        return self._accbits + (self._nbytes - self._bytepos) * 8

    def _refill(self) -> None:
        """Top the accumulator up towards 64 bits (bounded so arithmetic
        stays on machine-word ints)."""
        pos = self._bytepos
        take = (64 - self._accbits) >> 3
        avail = self._nbytes - pos
        if take > avail:
            take = avail
        if take > 0:
            self._acc = (self._acc << (take * 8)) | int.from_bytes(
                self._data[pos : pos + take], "big"
            )
            self._accbits += take * 8
            self._bytepos = pos + take

    def read_bit(self) -> int:
        """Read a single bit (EOFError past the end)."""
        accbits = self._accbits
        if not accbits:
            self._refill()
            accbits = self._accbits
            if not accbits:
                raise EOFError("bit stream exhausted")
        accbits -= 1
        self._accbits = accbits
        bit = self._acc >> accbits
        self._acc &= (1 << accbits) - 1
        return bit

    def read(self, nbits: int) -> int:
        """Read ``nbits`` MSB-first; returns the unsigned value."""
        if nbits < 0:
            raise ValueError(f"negative nbits: {nbits}")
        accbits = self._accbits
        if nbits > accbits:
            self._refill()
            accbits = self._accbits
            if nbits > accbits:
                return self._read_slow(nbits)
        accbits -= nbits
        self._accbits = accbits
        value = self._acc >> accbits
        self._acc &= (1 << accbits) - 1
        return value

    def _read_slow(self, nbits: int) -> int:
        """Reads wider than one accumulator refill (or hitting EOF)."""
        value = 0
        remaining = nbits
        while remaining:
            if self._accbits == 0:
                self._refill()
                if self._accbits == 0:
                    raise EOFError("bit stream exhausted")
            take = remaining if remaining < self._accbits else self._accbits
            self._accbits -= take
            value = (value << take) | (self._acc >> self._accbits)
            self._acc &= (1 << self._accbits) - 1
            remaining -= take
        return value

    def peek16(self) -> int:
        """The next 16 bits without consuming them, 1-padded past the end
        of the stream (JPEG convention) -- the LUT-decode window."""
        accbits = self._accbits
        if accbits < 16:
            self._refill()
            accbits = self._accbits
            if accbits < 16:
                pad = 16 - accbits
                return (self._acc << pad) | ((1 << pad) - 1)
        return self._acc >> (accbits - 16)

    def skip(self, nbits: int) -> None:
        """Consume ``nbits`` already inspected via :meth:`peek16`
        (EOFError if the stream is shorter)."""
        accbits = self._accbits
        if nbits > accbits:
            self._refill()
            accbits = self._accbits
            if nbits > accbits:
                raise EOFError("bit stream exhausted")
        accbits -= nbits
        self._accbits = accbits
        self._acc &= (1 << accbits) - 1

    # -- plane-decode support (see repro.mjpeg.decoder.decode_plane) --------

    def _seek_bit(self, bitpos: int) -> None:
        """Reposition the cursor to an absolute bit offset.  Used by the
        plane decode, which reads the segment's bytes itself and writes
        back where it stopped: after its last block, or in front of the
        symbol it failed on."""
        bytepos = (bitpos + 7) >> 3
        accbits = bytepos * 8 - bitpos
        self._bytepos = bytepos
        self._accbits = accbits
        self._acc = (self._data[bytepos - 1] & ((1 << accbits) - 1)) if accbits else 0
