"""The recovery manager: checkpoints, durable delivery, replay.

Interposition follows the pattern set by observation and fault injection:
the manager installs itself as the ``recovery`` hook of every deployed
behaviour context, so exactly-once semantics -- like observation and like
faults -- require **no change to behaviour code**.

Protocol
--------
Sends on a connection ``(component, required_interface)`` are stamped with
a contiguous delivery sequence number (``Message.dseq``, starting at 1)
and a copy is buffered sender-side.  A receiver tracks, per inbound
stream ``(src, src_interface)``, the next expected sequence:

- ``dseq`` already delivered -> the message is a duplicate (an injected
  DUPLICATE fault, or a post-restart re-send): discarded, counted.
- ``dseq`` beyond the expected one -> the gap messages were lost in
  transport (DROP faults): replicas are served from the sender-side
  buffer and front-requeued ahead of the out-of-order message, so the
  behaviour still observes the original order.
- ``dseq`` as expected -> delivered.

Acknowledgement is *checkpoint-commit*: a buffered message is released
only when its receiver commits a checkpoint taken after the delivery.
A component whose :meth:`~repro.core.component.Component.snapshot` never
returns a state therefore never acks -- after a crash it falls back to a
full replay from epoch 0, which downstream dedup still renders
exactly-once end-to-end.

Consistent boundaries: checkpoints are attempted on the receive boundary
(``before_receive``) and on the send boundary *before* the outgoing
message is stamped (``on_send``), both points where a well-behaved
component's snapshot covers every message it has consumed and none it is
mid-way through producing.  The component itself guards finer-grained
consistency by returning ``None`` from ``snapshot()`` mid-transaction.

Deposits are excluded: a deposit targets the component's own provided
interface (the display mailbox), and re-execution after restore may
re-deposit an identical item -- at-least-once, deduplicated downstream by
frame index.  The delivery-guarantee table in ``docs/robustness.md``
spells this out.

Durability
----------
All of the above lives in process memory and therefore dies with the
process.  Pass ``durable=DurableStore(dir)`` and the manager mirrors the
protocol to disk (see :mod:`repro.recovery.durable`): every guaranteed
send is journaled with its retransmit payload, every checkpoint commit
spills the snapshot and journals the acks, and :meth:`install` in a
fresh process **cold-restores** the whole consistent cut -- committed
component states, rolled-back dseq/rx counters, and the unacked
retransmit buffers replayed into the (empty) mailboxes.  In-process
supervised restarts (:meth:`on_restart`) keep using the in-memory
tables; the disk is only read when the memory is gone.
"""

from __future__ import annotations

import threading
import time
from copy import deepcopy
from dataclasses import replace
from itertools import count
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import OBSERVATION, payload_nbytes
from repro.runtime.base import RuntimeError_

#: Connection key: (sender component, required interface name).
ConnKey = Tuple[str, str]


class RecoveryManager:
    """Exactly-once delivery and checkpoint/restore for one runtime."""

    def __init__(self, checkpoint_interval: int = 8, durable=None) -> None:
        if checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1, got {checkpoint_interval}")
        #: Optional :class:`repro.recovery.durable.DurableStore` mirroring
        #: the delivery protocol to disk.
        self.durable = durable
        self.cold_restored = False
        #: Attempt a checkpoint every N guaranteed operations (sends +
        #: deliveries) per component.  Attempts are cheap when the
        #: component declines (snapshot() -> None).
        self.checkpoint_interval = checkpoint_interval
        self.runtime = None
        self.installed = False
        self._conts: Dict[str, Any] = {}
        #: Next delivery sequence per connection.
        self._send_dseq: Dict[ConnKey, int] = {}
        #: Per-component index into ``_send_dseq`` keys, so a checkpoint
        #: snapshots only the component's own connections instead of
        #: filtering every connection in the runtime.
        self._send_keys: Dict[str, List[ConnKey]] = {}
        #: Sender-side retransmit buffers:
        #: ``(src, iface) -> {dseq: (uid, message copy, target provided)}``.
        self._unacked: Dict[ConnKey, Dict[int, tuple]] = {}
        #: Global send-order counter, so restart replay can reconstruct
        #: the original interleaving across connections.
        self._uid = count(1)
        #: Receiver-side stream state:
        #: ``component -> {(src, src_iface): {"next": int, "seen": set}}``.
        self._rx: Dict[str, Dict[ConnKey, Dict[str, Any]]] = {}
        #: Messages delivered since the component's last committed
        #: checkpoint -- acked (removed from retransmit buffers) when the
        #: next checkpoint commits.
        self._delivered: Dict[str, List[Any]] = {}
        #: Latest committed checkpoint per component.
        self._ckpt: Dict[str, Dict[str, Any]] = {}
        self._epoch: Dict[str, int] = {}
        self._ops: Dict[str, int] = {}
        # Totals (also mirrored per component on the observation probes).
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        self.replayed = 0
        self.deduped = 0
        self.restores = 0
        # The simulated runtimes are single-flow; the native runtime runs
        # one thread per component against the same shared tables.
        self._lock = threading.RLock()

    # -- installation ---------------------------------------------------------

    def install(self, runtime) -> "RecoveryManager":
        """Hook every deployed behaviour context (call after ``deploy()``,
        in any order relative to tracing and fault injection, but before
        ``start()``)."""
        if self.installed:
            raise RuntimeError("recovery manager already installed")
        if not runtime.supports_replay:
            raise RuntimeError_(
                f"RecoveryManager cannot be installed on {type(runtime).__name__}: "
                "fault replay is not supported in sharded simulation; use SmpSimRuntime"
            )
        if runtime.recovery is not None and runtime.recovery is not self:
            raise RuntimeError("runtime already has a recovery manager")
        runtime.recovery = self
        self.runtime = runtime
        for cont in runtime.containers.values():
            if cont.context is None:
                raise RuntimeError("install recovery after deploy()")
            base = cont.context
            while hasattr(base, "_delegate"):  # unwrap TracingContext et al.
                base = base._delegate
            base.recovery = self
            self._conts[cont.component.name] = cont
        if self.durable is not None and self.durable.has_state():
            # A previous process committed state into this directory --
            # this install is a cold restore, not a fresh start.
            self._cold_restore()
        else:
            if self.durable is not None:
                self.durable.open()
            # Epoch-0 checkpoints: the pristine state is the restore target
            # for components that crash before their first periodic
            # checkpoint.
            for name in self._conts:
                self._take_checkpoint(name)
        self.installed = True
        return self

    def _cold_restore(self) -> None:
        """Rebuild the consistent cut a dead process left on disk: restore
        committed component states, roll dseq/rx to the committed instant,
        refill the retransmit buffers from the WAL, and replay every
        unacked message into the (empty) mailboxes in original send order.

        Messages sent after their sender's committed checkpoint appear
        both here (journaled) and again live (the rolled-back sender
        re-emits them under the same dseq); receiver-side dedup renders
        the pair exactly-once, same as any duplicate.
        """
        restored = self.durable.open().restore_state()
        for name, ckpt in restored.checkpoints.items():
            cont = self._conts.get(name)
            if cont is None:
                continue  # directory holds state for a larger app graph
            cont.component.restore(deepcopy(ckpt["state"]))
            self._ckpt[name] = ckpt
            self._epoch[name] = ckpt["epoch"]
            self._ops[name] = 0
            keys = list(ckpt["send"])
            if keys:
                self._send_keys[name] = keys
            for key, dseq in ckpt["send"].items():
                self._send_dseq[key] = dseq
            self._rx[name] = {
                k: {"next": v["next"], "seen": set(v["seen"])}
                for k, v in ckpt["rx"].items()
            }
        entries = []
        for key, slot in restored.unacked.items():
            buffered = self._unacked.setdefault(key, {})
            for dseq, (uid, message, (comp_name, prov_name)) in slot.items():
                cont = self._conts.get(comp_name)
                if cont is None:
                    continue
                target = cont.component.get_provided(prov_name)
                buffered[dseq] = (uid, message, target)
                entries.append((uid, comp_name, target, message))
        self._uid = count(restored.next_uid)
        # Mailboxes are empty in a fresh runtime, so reversed front-insert
        # (the same move on_restart uses) reproduces original send order.
        entries.sort(key=lambda e: e[0])
        for _uid, comp_name, target, message in reversed(entries):
            self._replay_one(comp_name, target, message)
        self.restores += 1
        self.cold_restored = True

    def _tracer(self, name: str):
        cont = self._conts.get(name)
        return cont.extra.get("tracer") if cont is not None else None

    # -- checkpointing --------------------------------------------------------

    def _take_checkpoint(self, name: str) -> bool:
        """Attempt a checkpoint; commits (and acks) only when the
        component offers a consistent snapshot."""
        cont = self._conts[name]
        comp = cont.component
        t0 = time.perf_counter_ns()
        state = comp.snapshot()
        if state is None:
            return False
        ckpt = {
            "epoch": self._epoch.get(name, -1) + 1,
            "state": deepcopy(state),
            "send": {k: self._send_dseq[k] for k in self._send_keys.get(name, ())},
            "rx": {
                k: {"next": v["next"], "seen": set(v["seen"])}
                for k, v in self._rx.get(name, {}).items()
            },
        }
        duration_ns = time.perf_counter_ns() - t0
        self._ckpt[name] = ckpt
        self._epoch[name] = ckpt["epoch"]
        self._ops[name] = 0
        # Ack-on-checkpoint: everything delivered up to here is folded
        # into the committed state, so the senders may forget it.
        acked = []
        for msg in self._delivered.pop(name, []):
            key = (msg.src, msg.src_interface)
            slot = self._unacked.get(key)
            if slot is not None and slot.pop(msg.dseq, None) is not None:
                acked.append((key, msg.dseq))
        if self.durable is not None:
            # The disk commit carries the acks with it (journaled after
            # the manifest flips -- see repro.recovery.durable).
            self.durable.commit_checkpoint(name, ckpt, acked)
        nbytes = payload_nbytes(ckpt["state"])
        self.checkpoints += 1
        self.checkpoint_bytes += nbytes
        if cont.probe is not None:
            cont.probe.record_checkpoint(nbytes, duration_ns)
        tracer = self._tracer(name)
        if tracer is not None:
            tracer.emit(
                "recovery", "checkpoint",
                epoch=ckpt["epoch"], bytes=nbytes, dur_ns=duration_ns,
            )
        return True

    # -- context hooks (called from ComponentContext) -------------------------

    def on_send(self, ctx, required_name: str, target, message) -> None:
        """Stamp the delivery sequence and buffer a retransmit copy."""
        if message.kind == OBSERVATION or target.is_observation:
            return  # observation traffic rides outside the guarantees
        name = ctx.component.name
        with self._lock:
            if self._ops.get(name, 0) >= self.checkpoint_interval:
                # Send boundary, *before* this message is stamped: on
                # restore the sender re-emits it under the same dseq.
                self._take_checkpoint(name)
            key = (name, required_name)
            dseq = self._send_dseq.get(key, 0) + 1
            if dseq == 1:
                self._send_keys.setdefault(name, []).append(key)
            self._send_dseq[key] = dseq
            message.dseq = dseq
            # The copy shares the payload reference deliberately: CORRUPT
            # faults reassign ``message.payload`` on the original object,
            # so the buffered copy keeps the pristine payload for replay.
            uid = next(self._uid)
            copy = replace(message)
            self._unacked.setdefault(key, {})[dseq] = (uid, copy, target)
            if self.durable is not None:
                self.durable.log_send(
                    key, dseq, uid, copy,
                    (target.component.name, target.name),
                )
            self._ops[name] = self._ops.get(name, 0) + 1

    def before_receive(self, ctx) -> None:
        """Checkpoint opportunity at the receive boundary."""
        name = ctx.component.name
        if self._ops.get(name, 0) >= self.checkpoint_interval:
            with self._lock:
                self._take_checkpoint(name)

    def on_message(self, ctx, provided_name: str, message) -> bool:
        """Admission control for one popped message: ``True`` delivers it,
        ``False`` tells the context to pop again (duplicate discarded, or
        a gap healed by front-requeued replicas)."""
        if message.dseq == 0:
            return True  # not under delivery guarantees
        name = ctx.component.name
        with self._lock:
            streams = self._rx.setdefault(name, {})
            key = (message.src, message.src_interface)
            stream = streams.get(key)
            if stream is None:
                stream = streams[key] = {"next": 1, "seen": set()}
            d = message.dseq
            if d < stream["next"] or d in stream["seen"]:
                self.deduped += 1
                cont = self._conts.get(name)
                if cont is not None and cont.probe is not None:
                    cont.probe.record_dedup(now_ns=ctx.now_ns())
                tracer = self._tracer(name)
                if tracer is not None:
                    tracer.emit(
                        "recovery", "dedup",
                        span=message.span, dseq=d, src=message.src,
                    )
                return False
            if d > stream["next"]:
                self._heal_gap(ctx, provided_name, stream, key, message)
                return False
            return True

    def _heal_gap(self, ctx, provided_name: str, stream, key: ConnKey, message) -> None:
        """Messages ``next..dseq-1`` were lost in transport: requeue the
        out-of-order message, then replicas of the missing ones in front
        of it, restoring original delivery order."""
        prov = ctx.component.get_provided(provided_name)
        runtime = self.runtime
        runtime._requeue(prov, message)
        slot = self._unacked.get(key, {})
        floor = message.dseq
        for missing in range(message.dseq - 1, stream["next"] - 1, -1):
            entry = slot.get(missing)
            if entry is None:
                # Acked means delivered means the stream already advanced
                # past it -- unreachable in a consistent run; skip rather
                # than wedge the receiver.
                continue
            _, copy, _target = entry
            self._replay_one(ctx.component.name, prov, copy, now_ns=ctx.now_ns())
            floor = missing
        # Whatever could not be healed is abandoned: accept delivery from
        # the lowest replayable sequence so the redo loop terminates.
        stream["next"] = floor

    def _replay_one(self, receiver: str, prov, copy, now_ns=None) -> None:
        """Front-requeue one replica of a buffered message.  The replica
        keeps the original ``dseq`` (dedup identity) but draws a fresh
        span whose cause is the original send's span -- the causal link
        the trace analysis surfaces as a replay edge.  ``now_ns`` (when
        the caller has a context clock) places the replay sample in the
        right telemetry window."""
        runtime = self.runtime
        replica = replace(copy, span=next(runtime.span_source), cause=copy.span)
        runtime._requeue(prov, replica)
        self.replayed += 1
        cont = self._conts.get(receiver)
        if cont is not None and cont.probe is not None:
            cont.probe.record_replay(now_ns=now_ns)
        tracer = self._tracer(receiver)
        if tracer is not None:
            tracer.emit(
                "recovery", "replay",
                span=replica.span, orig=copy.span, dseq=copy.dseq, src=copy.src,
            )

    def on_delivered(self, ctx, message) -> None:
        """A message passed admission and reached the behaviour: advance
        the stream, remember it for the next checkpoint's ack."""
        name = ctx.component.name
        with self._lock:
            self._ops[name] = self._ops.get(name, 0) + 1
            if message.dseq == 0:
                return
            key = (message.src, message.src_interface)
            stream = self._rx.setdefault(name, {}).setdefault(
                key, {"next": 1, "seen": set()}
            )
            stream["seen"].add(message.dseq)
            while stream["next"] in stream["seen"]:
                stream["seen"].discard(stream["next"])
                stream["next"] += 1
            self._delivered.setdefault(name, []).append(message)

    # -- restart path (called from the supervisor flow) -----------------------

    def on_restart(self, cont) -> None:
        """Restore the latest checkpoint and replay unacked messages --
        runs in the supervisor flow after backoff, before the fresh
        behaviour generator spawns (the consumer is not blocked on its
        mailbox, so front-requeues are safe)."""
        comp = cont.component
        name = comp.name
        with self._lock:
            ckpt = self._ckpt.get(name)
            if ckpt is not None:
                comp.restore(deepcopy(ckpt["state"]))
                # Roll both directions of the delivery state back to the
                # committed instant: re-sends reuse the same dseq (deduped
                # downstream), replays of already-seen messages pass
                # admission again.
                for key in self._send_keys.get(name, ()):
                    self._send_dseq[key] = ckpt["send"].get(key, 0)
                self._rx[name] = {
                    k: {"next": v["next"], "seen": set(v["seen"])}
                    for k, v in ckpt["rx"].items()
                }
            else:
                # Never checkpointed: fall back to a fresh behaviour plus
                # full replay from epoch 0 (nothing was ever acked).
                for key in self._send_keys.pop(name, ()):
                    del self._send_dseq[key]
                self._rx.pop(name, None)
            self._delivered.pop(name, None)
            self._ops[name] = 0
            self.restores += 1
            tracer = self._tracer(name)
            if tracer is not None:
                tracer.emit(
                    "recovery", "restore",
                    epoch=self._epoch.get(name, -1),
                )
            # Replay every unacknowledged message targeted at this
            # component, in original send order (reverse front-insert).
            entries = []
            for key, slot in self._unacked.items():
                for _dseq, (uid, copy, target) in slot.items():
                    if target.component is comp:
                        entries.append((uid, copy, target))
            entries.sort(key=lambda e: e[0])
            for _uid, copy, target in reversed(entries):
                self._replay_one(name, target, copy)

    # -- reporting ------------------------------------------------------------

    def close(self) -> None:
        """Flush and release the durable store, if any."""
        if self.durable is not None:
            self.durable.close()

    def report(self) -> Dict[str, Any]:
        """Summary of recovery activity (JSON-friendly)."""
        with self._lock:
            outstanding = sum(len(slot) for slot in self._unacked.values())
            out = {
                "checkpoints": self.checkpoints,
                "checkpoint_bytes": self.checkpoint_bytes,
                "replayed": self.replayed,
                "deduped": self.deduped,
                "restores": self.restores,
                "unacked": outstanding,
                "epochs": dict(self._epoch),
            }
            if self.durable is not None and self.durable.wal is not None:
                out["durable"] = {
                    "root": self.durable.root,
                    "cold_restored": self.cold_restored,
                    "wal_bytes": self.durable.wal.size_bytes(),
                    "wal_appends": self.durable.wal.appended,
                    "wal_truncated_bytes": self.durable.wal.truncated_bytes,
                    "commits": self.durable.manifest.get("commits", 0),
                }
            return out
