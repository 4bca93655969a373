"""Write-ahead log framing: round-trips, torn tails, bit rot.

Satellite of the durability PR: the WAL must *truncate* a torn tail and
*reject* a checksum mismatch -- under no input may it deserialize
garbage past the first untrusted byte.  The tests sweep truncation
points across every byte offset of the final record and flip bits at
seeded positions throughout the body.
"""

import os
import zlib

import numpy as np
import pytest

from repro.recovery.wal import (
    MAGIC,
    WalError,
    WriteAheadLog,
    encode_record,
    scan,
)


def _sample_records(rng, n):
    """Records shaped like real campaign traffic: nested dicts, bytes,
    numpy payloads of varying size."""
    out = []
    for i in range(n):
        out.append(
            {
                "t": rng.choice(["send", "acks", "ckpt"]),
                "i": i,
                "key": (f"c{i % 3}", "in"),
                "blob": bytes(rng.integers(0, 256, size=int(rng.integers(0, 512)), dtype=np.uint8)),
                "block": rng.standard_normal((int(rng.integers(1, 8)), 8)),
            }
        )
    return out


def _records_equal(a, b):
    assert a.keys() == b.keys()
    for k in a:
        if isinstance(a[k], np.ndarray):
            assert np.array_equal(a[k], b[k])
        else:
            assert a[k] == b[k]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_property(tmp_path, seed):
    """write(records); scan() == records -- across sizes and payload shapes."""
    rng = np.random.default_rng(seed)
    records = _sample_records(rng, int(rng.integers(1, 30)))
    path = str(tmp_path / "w.log")
    with WriteAheadLog(path) as wal:
        for rec in records:
            wal.append(rec)
    got, good, tail = scan(path)
    assert tail == "clean"
    assert good == os.path.getsize(path)
    assert len(got) == len(records)
    for a, b in zip(records, got):
        _records_equal(a, b)


def test_truncation_at_every_byte_of_the_last_record(tmp_path):
    """Cut the file at every offset inside the final record: the scan
    must return exactly the preceding records and flag the tail torn."""
    records = [{"t": "send", "i": i, "pad": b"x" * 40} for i in range(4)]
    path = str(tmp_path / "w.log")
    with WriteAheadLog(path) as wal:
        for rec in records:
            wal.append(rec)
    full = open(path, "rb").read()
    last_len = len(encode_record(records[-1]))
    boundary = len(full) - last_len  # byte offset where the last record starts
    for cut in range(boundary, len(full)):
        open(path, "wb").write(full[:cut])
        got, good, tail = scan(path)
        assert len(got) == len(records) - 1
        assert good == boundary
        if cut == boundary:
            assert tail == "clean"  # a cut at the frame boundary is a clean log
        else:
            assert tail == "torn"


def test_reopen_truncates_torn_tail_and_appends_cleanly(tmp_path):
    """The crash signature end-to-end: torn tail on disk, reopen
    truncates it, and records appended afterwards scan clean."""
    path = str(tmp_path / "w.log")
    with WriteAheadLog(path) as wal:
        wal.append({"t": "send", "i": 0})
        wal.append({"t": "send", "i": 1})
    full = open(path, "rb").read()
    open(path, "wb").write(full[:-3])  # tear the last record
    wal = WriteAheadLog(path)
    assert wal.tail == "torn"
    assert wal.truncated_bytes > 0
    wal.append({"t": "send", "i": 2})
    wal.close()
    got, _, tail = scan(path)
    assert tail == "clean"
    assert [r["i"] for r in got] == [0, 2]  # record 1 was the torn casualty


def test_bit_flips_are_rejected_never_deserialized(tmp_path):
    """Flip one bit at seeded offsets through header and payload bytes:
    the flipped record (and everything after it) must be dropped with a
    ``corrupt``/``torn`` verdict -- never returned with mangled fields."""
    records = [{"t": "send", "i": i, "pad": b"y" * 64} for i in range(6)]
    path = str(tmp_path / "w.log")
    with WriteAheadLog(path) as wal:
        for rec in records:
            wal.append(rec)
    full = bytearray(open(path, "rb").read())
    sizes = [len(encode_record(r)) for r in records]
    starts = [len(MAGIC)]
    for s in sizes[:-1]:
        starts.append(starts[-1] + s)
    rng = np.random.default_rng(1234)
    offsets = sorted(set(int(o) for o in rng.integers(len(MAGIC), len(full), size=80)))
    for off in offsets:
        flipped = bytearray(full)
        flipped[off] ^= 1 << int(rng.integers(0, 8))
        open(path, "wb").write(bytes(flipped))
        got, good, tail = scan(path)
        hit = max(i for i, s in enumerate(starts) if s <= off)
        # Everything before the damaged record survives verbatim...
        assert [r["i"] for r in got[:hit]] == list(range(hit))
        assert len(got) <= hit
        assert good <= starts[hit]
        # ...and nothing after it is trusted.
        assert tail in ("corrupt", "torn")


def test_corrupt_length_field_does_not_trigger_a_giant_read(tmp_path):
    """A length field blown past MAX_RECORD_BYTES is reported corrupt
    immediately instead of being interpreted as a multi-GB record."""
    path = str(tmp_path / "w.log")
    with WriteAheadLog(path) as wal:
        wal.append({"t": "send", "i": 0})
    with open(path, "r+b") as fh:
        fh.seek(len(MAGIC))
        fh.write((2**31).to_bytes(4, "little"))  # absurd payload length
    got, good, tail = scan(path)
    assert got == [] and good == len(MAGIC) and tail == "corrupt"


def test_crc_guards_payload_not_just_length(tmp_path):
    """Same length, different payload: CRC catches the substitution."""
    rec = {"t": "acks", "msgs": [(("a", "in"), 1)]}
    payload_a = encode_record(rec)
    path = str(tmp_path / "w.log")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(payload_a)
    # Replace the payload bytes with same-length junk, keep the header.
    body = bytearray(open(path, "rb").read())
    head_end = len(MAGIC) + 8
    junk = bytes((b + 1) % 256 for b in body[head_end:])
    open(path, "wb").write(bytes(body[:head_end]) + junk)
    assert zlib.crc32(junk) != zlib.crc32(payload_a[8:])
    got, _, tail = scan(path)
    assert got == [] and tail == "corrupt"


def test_bad_magic_raises(tmp_path):
    path = str(tmp_path / "not-a.log")
    open(path, "wb").write(b"JUNK!!" + b"\x00" * 20)
    with pytest.raises(WalError, match="bad magic"):
        scan(path)


def test_close_is_idempotent_and_reports_survive_close(tmp_path):
    path = str(tmp_path / "w.log")
    wal = WriteAheadLog(path)
    wal.append({"t": "send", "i": 0})
    wal.close()
    wal.close()
    assert wal.size_bytes() > len(MAGIC)
    assert [r["i"] for r in wal.records()] == [0]
