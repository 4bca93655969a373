"""Crash-surviving persistence for exactly-once recovery.

:class:`DurableStore` is the disk half of
:class:`~repro.recovery.manager.RecoveryManager`: an append-only
:class:`~repro.recovery.wal.WriteAheadLog` journaling delivery state
(sends with their retransmit payloads, acks) plus periodic checkpoint
spills of component snapshots, bound together by a manifest so a restore
is always from one consistent cut.

Crash consistency rules (the order is the protocol):

1. A checkpoint spill is written to a temp file and published with
   ``os.replace`` -- readers only ever see a complete checkpoint.
2. The WAL is synced *before* the manifest commits a new epoch: a
   sender's committed send-counter never gets ahead of the durable send
   records backing it (otherwise a message could be neither replayable
   nor re-sendable after a power cut).
3. The manifest itself is temp-file + ``os.replace``; it is the single
   commit point.  A crash between checkpoint spill and manifest commit
   leaves an orphaned checkpoint file that the next commit garbage
   collects -- the previous cut stays intact.
4. Acks are journaled *after* the manifest commit.  An ack that never
   made it to disk merely causes a redundant replay, which receiver-side
   dedup discards; an ack that hit disk before its checkpoint committed
   would lose a message, so that order is never used.

``kill -9`` (the fault class under test) never loses the OS page cache,
so every append is recoverable; the WAL's fsync at commit points (see
:mod:`repro.recovery.wal`) bounds what a *power cut* can take with it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import Message
from repro.recovery.wal import WalError, WriteAheadLog, scan

MANIFEST_NAME = "MANIFEST.json"
_CKPT_DIR = "ckpt"
_WAL_NAME = "wal-000001.log"

#: Message fields journaled for retransmission (everything but the
#: runtime-assigned causal identity, which replays re-draw).
_MSG_FIELDS = (
    "payload", "kind", "tag", "src", "src_interface",
    "seq", "size_bytes", "span", "cause", "dseq",
)


class DurableError(Exception):
    """An unusable or inconsistent durable store."""


def atomic_write_bytes(path: str, data: bytes, dir_sync: bool = True) -> None:
    """Publish ``data`` at ``path`` all-or-nothing: write a sibling temp
    file, fsync it, ``os.replace`` into place, fsync the directory."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    if dir_sync:
        _fsync_dir(os.path.dirname(path) or ".")


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def config_digest(config: Optional[Dict[str, Any]]) -> str:
    """Canonical digest of the run configuration the store belongs to.

    A restore against a different configuration (other seed, other
    stream length) would replay messages into the wrong application --
    the manifest binds the digest so the mismatch is an error, not a
    silent wrong answer.
    """
    canonical = json.dumps(config or {}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def canonical_json_bytes(payload: Any) -> bytes:
    """The canonical byte form of a JSON value (sorted keys, no
    whitespace) -- the input of every digest that must be stable across
    processes and resumes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def write_checksummed_json(path: str, body: Any, dir_sync: bool = True) -> str:
    """Atomically publish ``body`` as a self-verifying JSON document.

    The file wraps the body with the sha256 of its canonical form, so a
    reader can tell a torn or corrupted write from a valid one without
    any out-of-band state.  Fleet campaigns use this for the campaign
    manifest, reference-cache entries and per-cell results -- the files
    an orchestrator ``kill -9`` may leave half-written.  Returns the
    body checksum.
    """
    checksum = hashlib.sha256(canonical_json_bytes(body)).hexdigest()
    document = {"body": body, "sha256": checksum}
    atomic_write_bytes(
        path,
        json.dumps(document, sort_keys=True, indent=2).encode() + b"\n",
        dir_sync=dir_sync,
    )
    return checksum


def read_checksummed_json(path: str) -> Any:
    """Read a document written by :func:`write_checksummed_json`,
    verifying its checksum; raises :class:`DurableError` when the file is
    torn, corrupt, or not in the checksummed format."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DurableError(f"{path}: unreadable checksummed document: {exc}") from exc
    if not isinstance(document, dict) or "body" not in document or "sha256" not in document:
        raise DurableError(f"{path}: not a checksummed JSON document")
    body = document["body"]
    expected = document["sha256"]
    actual = hashlib.sha256(canonical_json_bytes(body)).hexdigest()
    if actual != expected:
        raise DurableError(
            f"{path}: checksum mismatch (stored {expected[:12]}..., "
            f"computed {actual[:12]}...); torn or corrupted write"
        )
    return body


def message_to_record(message: Message) -> Dict[str, Any]:
    """The journaled form of a retransmit copy."""
    return {name: getattr(message, name) for name in _MSG_FIELDS}


def message_from_record(fields: Dict[str, Any]) -> Message:
    """Rebuild a retransmittable message from its journaled form."""
    return Message(**fields)


@dataclass
class RestoredState:
    """Everything :meth:`DurableStore.restore_state` recovers from disk."""

    #: Committed checkpoint per component: ``{"epoch","state","send","rx"}``.
    checkpoints: Dict[str, Dict[str, Any]] = field(default_factory=dict, init=False)
    #: Unacked retransmit buffers:
    #: ``(src, iface) -> {dseq: (uid, message, (target component, provided))}``.
    unacked: Dict[Tuple[str, str], Dict[int, tuple]] = field(default_factory=dict, init=False)
    #: First send-order uid a resumed run may allocate.
    next_uid: int = field(default=1, init=False)
    #: WAL records surviving on disk (sends + acks + ckpt markers).
    wal_records: int = field(default=0, init=False)
    #: Bytes the torn-tail truncation discarded on open.
    truncated_bytes: int = 0


class CheckpointStore:
    """Component snapshots on disk, one file per committed epoch."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path_of(self, name: str, epoch: int) -> str:
        return os.path.join(self.root, f"{name}.{epoch:08d}.ckpt")

    def save(self, name: str, ckpt: Dict[str, Any]) -> str:
        """Spill one checkpoint dict; returns its (relative) filename."""
        path = self.path_of(name, ckpt["epoch"])
        atomic_write_bytes(path, pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL))
        return os.path.basename(path)

    def load(self, filename: str) -> Dict[str, Any]:
        """Read one committed checkpoint back."""
        with open(os.path.join(self.root, filename), "rb") as fh:
            return pickle.load(fh)

    def gc(self, committed: Dict[str, str]) -> int:
        """Delete spills the manifest no longer points at (older epochs,
        orphans from a crash between spill and commit)."""
        keep = set(committed.values())
        removed = 0
        for entry in os.listdir(self.root):
            if entry.endswith(".ckpt") and entry not in keep:
                os.unlink(os.path.join(self.root, entry))
                removed += 1
        return removed


class DurableStore:
    """One directory holding WAL + checkpoints + manifest for one run."""

    def __init__(self, root: str, config: Optional[Dict[str, Any]] = None) -> None:
        self.root = root
        self.config = dict(config or {})
        self.config_digest = config_digest(config)
        self.wal: Optional[WriteAheadLog] = None
        self.ckpts = CheckpointStore(os.path.join(root, _CKPT_DIR))
        self.manifest: Dict[str, Any] = {}
        self.opened = False

    # -- lifecycle ------------------------------------------------------------

    def open(self) -> "DurableStore":
        """Create or reopen the store (idempotent).  Reopening truncates
        the WAL's torn tail and validates the config binding."""
        if self.opened:
            return self
        os.makedirs(self.root, exist_ok=True)
        manifest_path = os.path.join(self.root, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            with open(manifest_path) as fh:
                self.manifest = json.load(fh)
            if self.config and self.manifest["config_digest"] != self.config_digest:
                raise DurableError(
                    f"{self.root}: durable state belongs to a different run "
                    f"(config digest {self.manifest['config_digest'][:12]} != "
                    f"{self.config_digest[:12]})"
                )
        else:
            self.manifest = {
                "format": 1,
                "config_digest": self.config_digest,
                "config": self.config,
                "wal": _WAL_NAME,
                "epochs": {},
                "ckpts": {},
                "commits": 0,
            }
            self._write_manifest()
        self.wal = WriteAheadLog(os.path.join(self.root, self.manifest["wal"]))
        self.opened = True
        return self

    def close(self) -> None:
        """Flush and release the WAL handle."""
        if self.wal is not None:
            self.wal.close()
        self.opened = False

    def has_state(self) -> bool:
        """True when a previous process committed at least one epoch
        here -- the signal to cold-restore instead of starting fresh."""
        manifest_path = os.path.join(self.root, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            return False
        with open(manifest_path) as fh:
            return bool(json.load(fh)["epochs"])

    def _write_manifest(self) -> None:
        atomic_write_bytes(
            os.path.join(self.root, MANIFEST_NAME),
            json.dumps(self.manifest, indent=2, sort_keys=True).encode(),
        )

    # -- journal (RecoveryManager write path) ---------------------------------

    def log_send(
        self,
        key: Tuple[str, str],
        dseq: int,
        uid: int,
        message: Message,
        target: Tuple[str, str],
    ) -> None:
        """Journal one guaranteed send with its retransmit payload."""
        self.wal.append(
            {
                "t": "send",
                "key": key,
                "dseq": dseq,
                "uid": uid,
                "target": target,
                "msg": message_to_record(message),
            }
        )

    def commit_checkpoint(
        self, name: str, ckpt: Dict[str, Any], acked: List[Tuple[Tuple[str, str], int]]
    ) -> None:
        """One crash-consistent checkpoint commit (see the module doc for
        the ordering argument): marker -> WAL sync -> spill -> manifest
        -> acks."""
        self.wal.append({"t": "ckpt", "component": name, "epoch": ckpt["epoch"]})
        self.wal.sync()
        filename = self.ckpts.save(name, ckpt)
        self.manifest["epochs"][name] = ckpt["epoch"]
        self.manifest["ckpts"][name] = filename
        self.manifest["commits"] += 1
        self._write_manifest()
        self.ckpts.gc(self.manifest["ckpts"])
        if acked:
            self.wal.append({"t": "acks", "msgs": acked})

    # -- restore (fresh-process read path) ------------------------------------

    def restore_state(self) -> RestoredState:
        """Rebuild the consistent cut a dead process left behind."""
        if not self.opened:
            self.open()
        out = RestoredState(truncated_bytes=self.wal.truncated_bytes)
        for name, filename in self.manifest["ckpts"].items():
            ckpt = self.ckpts.load(filename)
            if ckpt["epoch"] != self.manifest["epochs"][name]:
                raise DurableError(
                    f"{self.root}: checkpoint file {filename} carries epoch "
                    f"{ckpt['epoch']}, manifest committed {self.manifest['epochs'][name]}"
                )
            out.checkpoints[name] = ckpt
        max_uid = 0
        for record in self.wal.records():
            out.wal_records += 1
            kind = record["t"]
            if kind == "send":
                key = tuple(record["key"])
                out.unacked.setdefault(key, {})[record["dseq"]] = (
                    record["uid"],
                    message_from_record(record["msg"]),
                    tuple(record["target"]),
                )
                if record["uid"] > max_uid:
                    max_uid = record["uid"]
            elif kind == "acks":
                for key, dseq in record["msgs"]:
                    slot = out.unacked.get(tuple(key))
                    if slot is not None:
                        slot.pop(dseq, None)
        out.next_uid = max_uid + 1
        return out

    # -- inspection (repro recover CLI) ---------------------------------------

    def verify(self) -> Dict[str, Any]:
        """Check the whole binding: manifest, checkpoint files, WAL scan.

        Returns a JSON-friendly report; raises :class:`DurableError` /
        :class:`~repro.recovery.wal.WalError` on inconsistency (a torn
        WAL tail is reported, not raised -- truncation is the designed
        crash signature)."""
        manifest_path = os.path.join(self.root, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise DurableError(f"{self.root}: no {MANIFEST_NAME}")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        wal_path = os.path.join(self.root, manifest["wal"])
        if not os.path.exists(wal_path):
            raise DurableError(f"{self.root}: manifest names missing WAL {manifest['wal']}")
        records, good, tail = scan(wal_path)
        if tail == "corrupt":
            raise WalError(f"{wal_path}: corrupt record at byte {good}")
        counts: Dict[str, int] = {}
        for record in records:
            counts[record["t"]] = counts.get(record["t"], 0) + 1
        ckpt_bytes = 0
        for name, filename in manifest["ckpts"].items():
            ckpt = self.ckpts.load(filename)  # unpickles or raises
            if ckpt["epoch"] != manifest["epochs"][name]:
                raise DurableError(
                    f"{self.root}: {filename} epoch {ckpt['epoch']} != "
                    f"manifest {manifest['epochs'][name]}"
                )
            ckpt_bytes += os.path.getsize(os.path.join(self.ckpts.root, filename))
        return {
            "root": self.root,
            "config_digest": manifest["config_digest"],
            "commits": manifest["commits"],
            "epochs": dict(manifest["epochs"]),
            "wal": {
                "segment": manifest["wal"],
                "bytes": os.path.getsize(wal_path),
                "good_bytes": good,
                "tail": tail,
                "records": counts,
            },
            "checkpoint_bytes": ckpt_bytes,
            "ok": True,
        }


class FrameStore:
    """Decoded frames as atomic per-index files -- the externalized,
    idempotent output of the durable campaign worker.

    A frame re-completed after a restore overwrites its index with
    byte-identical pixels (``os.replace``, so a SIGKILL mid-write can
    never publish half a frame), which is exactly the at-least-once +
    idempotence contract deposits already have in-process.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path_of(self, index: int) -> str:
        return os.path.join(self.root, f"frame-{index:06d}.npy")

    def save(self, index: int, image) -> None:
        """Publish one decoded frame atomically."""
        import numpy as np

        buf = io.BytesIO()
        np.save(buf, image)
        atomic_write_bytes(self.path_of(index), buf.getvalue(), dir_sync=False)

    def count(self) -> int:
        """Frames currently on disk (the supervisor's progress signal)."""
        try:
            return sum(1 for e in os.listdir(self.root) if e.endswith(".npy"))
        except FileNotFoundError:
            return 0

    def load_frames(self) -> Dict[int, Any]:
        """All frames by index (the digest oracle's input)."""
        import numpy as np

        frames: Dict[int, Any] = {}
        for entry in sorted(os.listdir(self.root)):
            if not entry.endswith(".npy"):
                continue
            index = int(entry[len("frame-"):-len(".npy")])
            frames[index] = np.load(os.path.join(self.root, entry))
        return frames
