"""Append-only write-ahead log with checksummed, length-prefixed records.

The durable half of exactly-once delivery (see :mod:`repro.recovery.durable`)
journals every guaranteed send, every ack and every checkpoint commit into
one of these logs.  The format is deliberately primitive -- the whole
point is that a half-written tail after ``kill -9`` must be *detectable*,
never *interpretable*:

``file   = header record*``
``header = b"RWAL1\\n" (6 bytes)``
``record = u32 payload-length | u32 crc32(payload) | payload``

Payloads are pickled dicts (they carry numpy block batches, so JSON is
out).  A record is only ever trusted after its length field fits inside
the file **and** its CRC matches; the first record that fails either test
ends the readable prefix.  :func:`scan` reports that prefix, and opening
a log for append truncates the file back to it -- the torn tail a crash
left behind is discarded before any new record lands after it.

Appends are fsynced only at explicit :meth:`WriteAheadLog.sync` commit
points (see ``docs/robustness.md``): the recovery manager syncs on every
checkpoint commit, so at most one inter-checkpoint window of operations
can be lost to a power cut.  A plain ``kill -9`` loses nothing: the OS
page cache survives the process.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Dict, Iterator, List, Tuple

MAGIC = b"RWAL1\n"
_HEAD = struct.Struct("<II")  # payload length, crc32

#: Cap on a single record (a corrupted length field must not turn into a
#: multi-gigabyte read).  Campaign records are a few kB.
MAX_RECORD_BYTES = 64 * 1024 * 1024


class WalError(Exception):
    """A malformed or unusable write-ahead log."""


def encode_record(record: Dict[str, Any]) -> bytes:
    """One framed record: header + pickled payload."""
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEAD.pack(len(payload), zlib.crc32(payload)) + payload


def scan(path: str) -> Tuple[List[Dict[str, Any]], int, str]:
    """Read the trustworthy prefix of a log.

    Returns ``(records, good_length, tail)`` where ``good_length`` is the
    byte offset of the first untrusted byte and ``tail`` describes what
    ended the scan: ``"clean"`` (end of file), ``"torn"`` (incomplete
    trailing frame -- the normal crash signature) or ``"corrupt"`` (a
    CRC or length-field mismatch: bit rot, or a crash that landed inside
    an earlier record).  Nothing after a bad frame is ever deserialized.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(MAGIC)] != MAGIC:
        raise WalError(f"{path}: not a write-ahead log (bad magic)")
    offset = len(MAGIC)
    tail = "clean"
    size = len(data)
    while offset < size:
        if offset + _HEAD.size > size:
            tail = "torn"
            break
        length, crc = _HEAD.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            tail = "corrupt"
            break
        end = offset + _HEAD.size + length
        if end > size:
            tail = "torn"
            break
        payload = data[offset + _HEAD.size : end]
        if zlib.crc32(payload) != crc:
            tail = "corrupt"
            break
        records.append(pickle.loads(payload))
        offset = end
    return records, offset, tail


class WriteAheadLog:
    """One append-only log segment.

    Opening an existing segment replays nothing by itself -- it scans for
    the trustworthy prefix, truncates the torn/corrupt tail away, and
    positions the write cursor there.  Use :func:`scan` (or
    :meth:`records`) to read the surviving records.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Records discarded by torn-tail truncation on open (0 for a
        #: fresh or cleanly closed log); surfaced by ``repro recover``.
        self.truncated_bytes = 0
        self.tail = "clean"
        if os.path.exists(path):
            _, good, tail = scan(path)
            self.tail = tail
            total = os.path.getsize(path)
            if good < total:
                self.truncated_bytes = total - good
                with open(path, "r+b") as fh:
                    fh.truncate(good)
            self._fh = open(path, "ab")
        else:
            self._fh = open(path, "ab")
            self._fh.write(MAGIC)
            self._sync_now()
        self._dirty = False
        self.appended = 0

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record; returns the byte offset it starts at."""
        offset = self._fh.tell()
        self._fh.write(encode_record(record))
        self.appended += 1
        self._dirty = True
        return offset

    def sync(self) -> None:
        """Commit point: flush to the OS and to stable storage."""
        if self._dirty:
            self._sync_now()

    def _sync_now(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._dirty = False

    def records(self) -> Iterator[Dict[str, Any]]:
        """The trustworthy records currently on disk (flushes first so
        the iterator sees this process's own appends)."""
        if not self._fh.closed:
            self._fh.flush()
        records, _, _ = scan(self.path)
        return iter(records)

    def size_bytes(self) -> int:
        """Current segment size including unflushed buffer."""
        if not self._fh.closed:
            self._fh.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        """Flush, sync, release the file handle."""
        if self._fh.closed:
            return
        self.sync()
        self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
