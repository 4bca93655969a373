"""The chain decode against the per-symbol loop it replaced.

``decode_plane`` must agree with ``decode_plane_loop``
(``tests/mjpeg/reference_decode_loop.py``) and with the per-bit F.16
walk ``decode_plane_reference`` on every input: the coefficient bytes,
the ``DecodeError`` text, the type of its ``__cause__`` and
``reader.bits_read`` afterwards.  Every decode runs under a deadline,
so a chase that never ends fails its case instead of hanging the suite.
"""

import random
import signal
from contextlib import contextmanager

import numpy as np
import pytest

import repro.mjpeg.decoder as decoder
from repro.mjpeg import generate_stream
from repro.mjpeg.bitio import BitReader, BitWriter
from repro.mjpeg.decoder import DecodeError, decode_plane, decode_plane_reference
from repro.mjpeg.encoder import encode_plane
from repro.mjpeg.huffman import STD_AC_CHROMA, STD_AC_LUMA, STD_DC_CHROMA, STD_DC_LUMA

from tests.mjpeg.reference_decode_loop import decode_plane_loop

LUMA = (STD_DC_LUMA, STD_AC_LUMA)
CHROMA = (STD_DC_CHROMA, STD_AC_CHROMA)
DEADLINE_S = 10


@contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the body once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"decode ran past its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def outcome(decode, payload, n_blocks, skip, tables):
    """What one decode leaves: its coefficients or its error, and the
    reader position."""
    reader = BitReader(payload)
    if skip:
        reader.read(skip)
    with deadline(DEADLINE_S):
        try:
            out = decode(reader, n_blocks, *tables)
        except DecodeError as err:
            return ("error", str(err), type(err.__cause__), reader.bits_read)
    return ("ok", out.dtype.str, out.shape, out.tobytes(), reader.bits_read)


def assert_same(payload, n_blocks, skip=0, tables=LUMA):
    chain = outcome(decode_plane, payload, n_blocks, skip, tables)
    loop = outcome(decode_plane_loop, payload, n_blocks, skip, tables)
    walk = outcome(decode_plane_reference, payload, n_blocks, skip, tables)
    assert chain == loop == walk, (payload.hex(), n_blocks, skip, tables[0].name)
    return chain


def encoded(qzz, tables, skip=0):
    """``qzz`` entropy-coded after ``skip`` zero bits, byte-aligned."""
    writer = BitWriter()
    if skip:
        writer.write(0, skip)
    encode_plane(writer, qzz, *tables)
    writer.align()
    return writer.getvalue()


def full_blocks(rng, n_blocks):
    """Blocks of which about half end on a nonzero coefficient 63, so
    they close without an EOB, and some are dense from 1 to 63."""
    qzz = np.zeros((n_blocks, 64), dtype=np.int32)
    for block in qzz:
        for _ in range(int(rng.integers(0, 14))):
            block[int(rng.integers(0, 64))] = int(rng.integers(-300, 300))
        if rng.random() < 0.2:
            block[1:] = rng.integers(-5, 6, 63)
        if rng.random() < 0.5:
            block[63] = int(rng.choice([-700, -3, 1, 2, 700]))
    return qzz


@pytest.mark.parametrize("tables", [LUMA, CHROMA], ids=["luma", "chroma"])
def test_random_bytes(tables):
    rng = random.Random(16_000)
    kinds = {}
    for case in range(2000):
        size = rng.randrange(0, 40)
        if case % 3:
            payload = bytes(rng.randrange(256) for _ in range(size))
        else:  # runs of zeros, ones and 0x55 reach EOBs, ZRLs and long codes
            payload = bytes(rng.choice([0, 0xFF, 0x55, rng.randrange(256)]) for _ in range(size))
        skip = rng.randrange(0, 8) if size else 0
        result = assert_same(payload, rng.randrange(0, 12), skip, tables)
        kinds[result[1] if result[0] == "error" else "ok"] = True
    assert set(kinds) >= {
        "ok",
        "entropy segment truncated",
        "invalid DC Huffman code",
        "invalid AC Huffman code",
    }


@pytest.mark.parametrize("damage", ["plain", "corrupted", "truncated"])
@pytest.mark.parametrize("tables", [LUMA, CHROMA], ids=["luma", "chroma"])
def test_planes_with_blocks_that_fill_coefficient_63(tables, damage):
    rng = np.random.default_rng(63)
    filled = 0
    overflows = 0
    for _ in range(300):
        n_blocks = int(rng.integers(1, 10))
        qzz = full_blocks(rng, n_blocks)
        filled += int(np.count_nonzero(qzz[:, 63]))
        skip = int(rng.integers(0, 8))
        payload = bytearray(encoded(qzz, tables, skip))
        if damage == "corrupted":
            for _ in range(int(rng.integers(1, 4))):
                bit = int(rng.integers(skip, len(payload) * 8))
                payload[bit >> 3] ^= 0x80 >> (bit & 7)
        elif damage == "truncated":
            payload = payload[: int(rng.integers(1, len(payload) + 1))]
        result = assert_same(bytes(payload), n_blocks, skip, tables)
        if damage == "plain":
            assert result[0] == "ok"
            assert result[3] == qzz.tobytes()
        overflows += result[1].startswith("AC run overflows block")
    assert filled > 300
    # Flipped bits run past coefficient 63 too.
    assert (overflows > 0) == (damage == "corrupted")


def test_a_plane_whose_blocks_all_fill_is_chased_twice(monkeypatch):
    # One chase in AC mode, then one that counts zigzag indices from the
    # first fill on: chasing again from every fill would cost each full
    # block the rest of the plane.
    chases = []
    for name in ("_chase", "_chase_blocks"):
        chase = getattr(decoder, name)
        monkeypatch.setattr(
            decoder, name, lambda *args, chase=chase, name=name: chases.append(name) or chase(*args)
        )
    qzz = full_blocks(np.random.default_rng(95), 40)
    qzz[:, 63] = 1
    np.testing.assert_array_equal(decode_plane(BitReader(encoded(qzz, LUMA)), 40), qzz)
    assert chases == ["_chase", "_chase_blocks"]


def test_planes_back_to_back_from_unaligned_starts():
    # A luma plane then a chroma plane from one reader, the first one
    # starting mid-byte: each decode starts where the last one stopped.
    rng = np.random.default_rng(7)
    for skip in range(8):
        luma, chroma = full_blocks(rng, 5), full_blocks(rng, 3)
        writer = BitWriter()
        if skip:
            writer.write(0, skip)
        encode_plane(writer, luma, *LUMA)
        encode_plane(writer, chroma, *CHROMA)
        writer.align()
        payload = writer.getvalue()
        readers = []
        for decode in (decode_plane, decode_plane_loop):
            reader = BitReader(payload)
            if skip:
                reader.read(skip)
            planes = [decode(reader, 5, *LUMA), decode(reader, 3, *CHROMA)]
            readers.append(reader.bits_read)
            np.testing.assert_array_equal(planes[0], luma)
            np.testing.assert_array_equal(planes[1], chroma)
        assert readers[0] == readers[1]


@pytest.mark.parametrize("skip", [0, 3, 8, 13])
def test_zero_blocks(skip):
    payload = encoded(full_blocks(np.random.default_rng(0), 2), LUMA)
    assert assert_same(payload, 0, skip)[1:] == ("<i4", (0, 64), b"", skip)


def test_a_symbol_that_fills_its_block_and_runs_past_the_data():
    # The last symbol (run 1, size 6 at bit 345) would place coefficient
    # 63 and fill its block, but its magnitude runs past the data: it
    # completes nothing, and the reader stops in front of it -- in the
    # F.16 walk too, which reads the magnitude bit by bit.
    payload = bytes.fromhex(
        "ffb0dffb586ffc5a2ffe880ffe431fff1c0bff243ffc574bfe3cbdff2cac7fe44abff17927fd3469ff4cb77fad"
    )
    result = assert_same(payload, 11, 0, CHROMA)
    assert result == ("error", "entropy segment truncated", EOFError, 345)
    assert outcome(decode_plane_reference, payload, 11, 0, CHROMA)[3] == 345


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_every_frame_of_the_benchmark_stream(seed):
    for record in generate_stream(192, 96, 96, quality=75, seed=seed):
        frame = record.frame
        result = assert_same(frame.payload, frame.n_blocks)
        assert result[3] == frame.qcoefs_zz.astype(np.int32).tobytes()
