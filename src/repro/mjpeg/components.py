"""The componentized MJPEG decoder (paper sections 3.2, 4.3 and 5.3).

SMP assembly (Figure 3)::

    Fetch --fetchIdct{1..3}--> IDCT_{1..3} --idctReorder--> Reorder --> display

STi7200 assembly (Figure 7)::

    Fetch-Reorder --fetchIdct{1,2}--> IDCT_{1,2} --idctReorder--> Fetch-Reorder

Interface names follow Figure 5: each IDCT provides ``_fetchIdctN`` and
requires ``idctReorder``.  The Reorder side exposes two provided
interfaces -- the shared ``idctReorder`` input and the ``display`` output
mailbox drained by the display controller -- which is exactly the
two-provided-interface footprint Table 1 reports for Reorder (and the two
distributed objects Table 3 reports for Fetch-Reorder).

Dispatch protocol: every image is partitioned into
:data:`BATCHES_PER_IMAGE` block batches sent round-robin over the IDCT
components.  The *first* image of a stream primes the entropy state
(tables, DC predictors) inside Fetch and is not dispatched, so a stream
of N images produces ``18 * (N - 1)`` data sends from Fetch -- matching
Table 2 exactly (10 386 for 578 images, 53 982 for 3 000).
"""

from __future__ import annotations

from sys import getsizeof
from typing import Dict, Generator, Optional

import numpy as np

from repro.core.application import Application
from repro.core.component import Component
from repro.core.messages import CONTROL, MESSAGE_HEADER_BYTES
from repro.mjpeg.decoder import (
    assemble_image,
    coefficients_from_qzz,
    decode_frame_coefficients,
    idct_stage,
    split_blocks,
)
from repro.mjpeg.stream import MJPEGStream

#: Batches per image; with 96x96 frames (144 blocks) each batch is 8 blocks.
BATCHES_PER_IMAGE = 18
#: IDCT components of the STi7200 deployment: one per ST231 accelerator.
STI7200_IDCTS = 2

#: Message tags.
TAG_BATCH = "batch"
TAG_PIXELS = "pixels"
TAG_FRAME = "frame"
TAG_EOS = "eos"

#: Key bytes of the two ints every batch payload carries.
_INDEX_KEY_BYTES = len("frame") + len("batch")


def batch_message_bytes(frame: int, batch: int, key: str, data: np.ndarray) -> int:
    """Message size of the batch payload ``{"frame": frame, "batch":
    batch, key: data}``, computed where the payload is built: what
    :func:`~repro.core.messages.payload_nbytes` gives for it, plus the
    header.  ``getsizeof`` of an int grows with its magnitude."""
    return (
        _INDEX_KEY_BYTES + len(key) + getsizeof(frame) + getsizeof(batch)
        + data.nbytes + MESSAGE_HEADER_BYTES
    )


def frames_digest(frames: Dict[int, np.ndarray]) -> str:
    """Order-independent sha256 over a decoded frame set.

    The canonical equality check for decoder output: the chaos campaign
    compares faulted runs against fault-free references with it, and the
    sharded-simulation CI gate diffs ``repro run --shards N`` against the
    single-shard run.  Frames hash in index order regardless of delivery
    order, so any runtime producing the same pixels gets the same digest.
    """
    import hashlib

    digest = hashlib.sha256()
    for index in sorted(frames):
        digest.update(index.to_bytes(4, "little"))
        digest.update(frames[index].tobytes())
    return digest.hexdigest()


def _fetch_stage(record, quality: int, use_stored_coefficients: bool) -> np.ndarray:
    """Fetch-stage decode of one frame: real bit walk or stored-coef fast
    path.  Both produce identical coefficients (tested) and are charged
    identically, so large simulated runs can skip the Python-level walk."""
    frame = record.frame
    if use_stored_coefficients:
        return coefficients_from_qzz(frame.qcoefs_zz, quality)
    return decode_frame_coefficients(frame.payload, frame.n_blocks, quality)


class FetchComponent(Component):
    """File management + Huffman decoding + pixel reordering."""

    def __init__(
        self,
        name: str,
        stream: MJPEGStream,
        n_idct: int = 3,
        use_stored_coefficients: bool = False,
    ) -> None:
        super().__init__(name)
        if n_idct < 1:
            raise ValueError(f"need at least one IDCT, got {n_idct}")
        self.stream = stream
        self.n_idct = n_idct
        self.batches_per_image = BATCHES_PER_IMAGE
        self.use_stored_coefficients = use_stored_coefficients
        # Resumable progress (checkpoint contract): the next record to
        # dispatch and how many batches of the current frame went out.
        # Reset at behaviour start unless a restore primed them, so a
        # recovery-less restart keeps the historical fresh-run semantics.
        self._cursor = 0
        self._sent_in_frame = 0
        self._restored = False
        for i in range(1, n_idct + 1):
            self.add_required(f"fetchIdct{i}")

    def idct_targets(self) -> list:
        """Currently connected IDCT interfaces, in index order.

        Re-evaluated per frame so dynamically added IDCT components
        (runtime reconfiguration) start receiving work immediately.
        """
        names = [
            r.name
            for r in self.required.values()
            if r.name.startswith("fetchIdct") and r.connected
        ]
        return sorted(names, key=lambda n: int(n[len("fetchIdct"):]))

    def snapshot(self) -> Optional[dict]:
        """Consistent only at frame boundaries: mid-frame the dispatched
        batches are not yet covered by the cursor."""
        if self._sent_in_frame:
            return None
        return {"cursor": self._cursor}

    def restore(self, state: dict) -> None:
        """Resume dispatching from the checkpointed record."""
        self._cursor = state["cursor"]
        self._sent_in_frame = 0
        self._restored = True

    def behavior(self, ctx) -> Generator:
        """The component's execution flow (generator over ctx)."""
        if not self._restored:
            self._cursor = 0
            self._sent_in_frame = 0
        self._restored = False
        quality = self.stream.quality
        for record in self.stream:
            if record.index < self._cursor:
                continue  # dispatched before a checkpointed restart
            coefs = _fetch_stage(record, quality, self.use_stored_coefficients)
            yield from ctx.compute("huffman_block", record.n_blocks)
            if record.index == 0:
                self._cursor = 1
                continue  # the first image primes the entropy state
            targets = self.idct_targets()
            batches = split_blocks(coefs.astype(np.float32), self.batches_per_image)
            for b, batch in enumerate(batches):
                if b < self._sent_in_frame:
                    continue  # sent before a crash; receivers dedup re-sends
                payload = {"frame": record.index, "batch": b, "coefs": batch}
                size = batch_message_bytes(record.index, b, "coefs", batch)
                yield from ctx.send(
                    targets[b % len(targets)], payload, tag=TAG_BATCH, size_bytes=size
                )
                self._sent_in_frame = b + 1
            self._sent_in_frame = 0
            self._cursor = record.index + 1
        for target in self.idct_targets():
            yield from ctx.send(target, None, kind=CONTROL, tag=TAG_EOS)


class IdctComponent(Component):
    """The Inverse Discrete Cosine Transform stage."""

    def __init__(self, name: str, index: int) -> None:
        super().__init__(name)
        self.index = index
        self.input_name = f"_fetchIdct{index}"
        self._processed = 0
        #: True while a received batch is mid-transform: its effects are
        #: not yet covered by the counters, so no consistent snapshot.
        self._busy = False
        self._restored = False
        self.add_provided(self.input_name)
        self.add_required("idctReorder")

    def snapshot(self) -> Optional[dict]:
        """Consistent at the receive boundary (``_busy`` clear)."""
        if self._busy:
            return None
        return {"processed": self._processed}

    def restore(self, state: dict) -> None:
        """Resume the processed counter from the checkpoint."""
        self._processed = state["processed"]
        self._restored = True

    def behavior(self, ctx) -> Generator:
        """The component's execution flow (generator over ctx)."""
        if not self._restored:
            self._processed = 0
        self._restored = False
        self._busy = False
        while True:
            msg = yield from ctx.receive(self.input_name)
            self._busy = True
            if msg.kind == CONTROL and msg.tag == TAG_EOS:
                yield from ctx.send("idctReorder", None, kind=CONTROL, tag=TAG_EOS)
                return self._processed
            batch = msg.payload
            pixels = idct_stage(batch["coefs"])
            yield from ctx.compute("idct_block", pixels.shape[0])
            frame, index = batch["frame"], batch["batch"]
            payload = {"frame": frame, "batch": index, "pixels": pixels}
            size = batch_message_bytes(frame, index, "pixels", pixels)
            yield from ctx.send("idctReorder", payload, tag=TAG_PIXELS, size_bytes=size)
            self._processed += 1
            self._busy = False


class ReorderComponent(Component):
    """Image reassembly + delivery to the display mailbox."""

    def __init__(
        self,
        name: str,
        height: int,
        width: int,
        n_upstream: Optional[int] = 3,
        keep_frames: bool = False,
        drop_incomplete: bool = False,
        frame_sink=None,
        quiescence_timeout_ns: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        self.height = height
        self.width = width
        #: Optional per-receive deadline (virtual ns).  When an upstream
        #: is halted or degraded its end-of-stream marker never arrives;
        #: with a quiescence deadline the reassembly loop treats that
        #: silence as end-of-stream-under-loss instead of blocking the
        #: application forever.  ``None`` keeps the strict EOS-counting
        #: behaviour.  Fleet campaign cells always set this.
        self.quiescence_timeout_ns = quiescence_timeout_ns
        #: None means "count the upstreams live" -- required when IDCT
        #: components are added by dynamic reconfiguration.
        self.n_upstream = n_upstream
        self.batches_per_image = BATCHES_PER_IMAGE
        self.keep_frames = keep_frames
        #: Lossy-transport mode: frames still incomplete at end-of-stream
        #: are discarded (and logged) instead of failing the component.
        #: Fault-injection campaigns set this so dropped batches cost the
        #: affected frame, not the whole pipeline.
        self.drop_incomplete = drop_incomplete
        #: Optional ``(index, image) -> None`` callback fired on every
        #: frame completion, *including* re-completions after a restore --
        #: sinks must be idempotent by index (the durable campaign's
        #: :class:`~repro.recovery.durable.FrameStore` overwrites with
        #: byte-identical content).
        self.frame_sink = frame_sink
        self.frames: Dict[int, np.ndarray] = {}
        #: Indices of frames fully reassembled and delivered to display.
        #: Also the duplicate filter: a re-delivered batch of a finished
        #: frame must not resurrect it as a phantom pending frame.
        self.completed_indices: set = set()
        # Resumable reassembly state (checkpoint contract); reset at
        # behaviour start unless a restore primed it.
        self._pending: Dict[int, Dict[int, np.ndarray]] = {}
        self._eos_seen = 0
        self._completed = 0
        self._restored = False
        self.add_provided("idctReorder")
        self.add_provided("display")

    def _upstream_count(self) -> int:
        if self.n_upstream is not None:
            return self.n_upstream
        return len(self.get_provided("idctReorder").connected_from)

    def snapshot(self) -> Optional[dict]:
        """Consistent at the receive boundary (the only point the
        recovery manager probes a receive-only component).

        The two containers the loop mutates are copied; the pixel arrays
        are shared, since nothing writes to them after they arrive.  The
        index set is rebuilt from a list, as ``deepcopy`` rebuilds a set,
        so its ``sys.getsizeof`` (its ``checkpoint_bytes``) is the one a
        deep copy would give."""
        return {
            "pending": {index: dict(batches) for index, batches in self._pending.items()},
            "eos_seen": self._eos_seen,
            "completed": self._completed,
            "completed_indices": set(list(self.completed_indices)),
        }

    def restore(self, state: dict) -> None:
        """Reinstall reassembly progress.  ``frames`` (delivered output)
        is deliberately not rolled back: re-completed frames overwrite
        their index with identical content."""
        self._pending = state["pending"]
        self._eos_seen = state["eos_seen"]
        self._completed = state["completed"]
        self.completed_indices = state["completed_indices"]
        self._restored = True

    def behavior(self, ctx) -> Generator:
        """The component's execution flow (generator over ctx)."""
        n_blocks = (self.height // 8) * (self.width // 8)
        if not self._restored:
            self._pending = {}
            self._eos_seen = 0
            self._completed = 0
        self._restored = False
        while self._eos_seen < self._upstream_count():
            if self.quiescence_timeout_ns is not None:
                from repro.core.errors import DeadlineError

                try:
                    msg = yield from ctx.receive(
                        "idctReorder", timeout_ns=self.quiescence_timeout_ns
                    )
                except DeadlineError:
                    # Upstream silence past the deadline: a halted or
                    # degraded sender whose EOS will never come.  Finish
                    # with what was reassembled (lossy-transport mode).
                    ctx.log(
                        f"quiescent for {self.quiescence_timeout_ns}ns with "
                        f"{self._eos_seen}/{self._upstream_count()} EOS; closing stream"
                    )
                    break
            else:
                msg = yield from ctx.receive("idctReorder")
            if msg.kind == CONTROL and msg.tag == TAG_EOS:
                self._eos_seen += 1
                continue
            item = msg.payload
            index = item["frame"]
            if index in self.completed_indices:
                continue  # duplicated batch of an already-delivered frame
            frame_batches = self._pending.setdefault(index, {})
            frame_batches[item["batch"]] = item["pixels"]
            if len(frame_batches) == self.batches_per_image:
                batches = [frame_batches[i] for i in range(self.batches_per_image)]
                image = assemble_image(batches, self.height, self.width)
                yield from ctx.compute("reorder_block", n_blocks)
                yield from ctx.deposit("display", image, tag=TAG_FRAME)
                if self.frame_sink is not None:
                    self.frame_sink(index, image)
                if self.keep_frames:
                    self.frames[index] = image
                del self._pending[index]
                self.completed_indices.add(index)
                self._completed += 1
        if self._pending:
            if not self.drop_incomplete:
                raise RuntimeError(
                    f"reorder finished with {len(self._pending)} incomplete frame(s): "
                    f"{sorted(self._pending)[:5]}"
                )
            ctx.log(f"dropped {len(self._pending)} incomplete frame(s): {sorted(self._pending)}")
            self._pending.clear()
        return self._completed


class FetchReorderComponent(Component):
    """The merged I/O component of the STi7200 deployment (section 5.3):
    Fetch and Reorder functionality in a single component on the
    general-purpose ST40."""

    def __init__(
        self,
        name: str,
        stream: MJPEGStream,
        use_stored_coefficients: bool = False,
        keep_frames: bool = False,
    ) -> None:
        super().__init__(name)
        self.stream = stream
        self.n_idct = STI7200_IDCTS
        self.batches_per_image = BATCHES_PER_IMAGE
        self.use_stored_coefficients = use_stored_coefficients
        self.keep_frames = keep_frames
        self.frames: Dict[int, np.ndarray] = {}
        # Resumable progress, gated exactly like FetchComponent: the
        # frame boundary (nothing of the current frame dispatched) is the
        # one consistent snapshot point of the merged send/collect loop.
        self._cursor = 0
        self._sent_in_frame = 0
        self._completed = 0
        self._restored = False
        for i in range(1, STI7200_IDCTS + 1):
            self.add_required(f"fetchIdct{i}")
        self.add_provided("idctReorder")
        self.add_provided("display")

    def snapshot(self) -> Optional[dict]:
        """Consistent only between frames (see class doc)."""
        if self._sent_in_frame:
            return None
        return {"cursor": self._cursor, "completed": self._completed}

    def restore(self, state: dict) -> None:
        """Resume the dispatch/collect loop from the checkpointed frame."""
        self._cursor = state["cursor"]
        self._completed = state["completed"]
        self._sent_in_frame = 0
        self._restored = True

    def behavior(self, ctx) -> Generator:
        """The component's execution flow (generator over ctx)."""
        if not self._restored:
            self._cursor = 0
            self._sent_in_frame = 0
            self._completed = 0
        self._restored = False
        stream = self.stream
        quality = stream.quality
        n_blocks = stream.n_blocks_per_frame
        for record in stream:
            if record.index < self._cursor:
                continue  # handled before a checkpointed restart
            coefs = _fetch_stage(record, quality, self.use_stored_coefficients)
            yield from ctx.compute("huffman_block", record.n_blocks)
            if record.index == 0:
                self._cursor = 1
                continue
            batches = split_blocks(coefs.astype(np.float32), self.batches_per_image)
            for b, batch in enumerate(batches):
                if b < self._sent_in_frame:
                    continue  # sent before a crash; the IDCTs dedup re-sends
                target = f"fetchIdct{(b % self.n_idct) + 1}"
                payload = {"frame": record.index, "batch": b, "coefs": batch}
                size = batch_message_bytes(record.index, b, "coefs", batch)
                yield from ctx.send(target, payload, tag=TAG_BATCH, size_bytes=size)
                self._sent_in_frame = b + 1
            # Reorder half: collect this frame's batches back.
            got: Dict[int, np.ndarray] = {}
            while len(got) < self.batches_per_image:
                msg = yield from ctx.receive("idctReorder")
                item = msg.payload
                got[item["batch"]] = item["pixels"]
            image = assemble_image(
                [got[i] for i in range(self.batches_per_image)], stream.height, stream.width
            )
            yield from ctx.compute("reorder_block", n_blocks)
            yield from ctx.deposit("display", image, tag=TAG_FRAME)
            if self.keep_frames:
                self.frames[record.index] = image
            self._completed += 1
            self._sent_in_frame = 0
            self._cursor = record.index + 1
        for i in range(1, self.n_idct + 1):
            yield from ctx.send(f"fetchIdct{i}", None, kind=CONTROL, tag=TAG_EOS)
        # Drain the IDCTs' end-of-stream acknowledgements.
        eos_seen = 0
        while eos_seen < self.n_idct:
            msg = yield from ctx.receive("idctReorder")
            if msg.kind == CONTROL and msg.tag == TAG_EOS:
                eos_seen += 1
        return self._completed


def build_smp_assembly(
    stream: MJPEGStream,
    n_idct: int = 3,
    use_stored_coefficients: bool = False,
    keep_frames: bool = False,
    with_observer: bool = True,
    drop_incomplete: bool = False,
    frame_sink=None,
    dynamic_upstream: bool = False,
    quiescence_timeout_ns: Optional[int] = None,
) -> Application:
    """The Figure 3 application: Fetch + n IDCT + Reorder.

    ``dynamic_upstream=True`` makes the Reorder stage count its live
    upstream connections per iteration instead of assuming all ``n_idct``
    IDCTs stay connected -- required when a supervision policy may detach
    a degraded IDCT mid-stream.  ``quiescence_timeout_ns`` additionally
    bounds how long Reorder waits for silent upstreams (see
    :class:`ReorderComponent`).
    """
    app = Application("mjpeg-smp")
    fetch = app.add(
        FetchComponent(
            "Fetch", stream, n_idct=n_idct, use_stored_coefficients=use_stored_coefficients
        )
    )
    idcts = [app.add(IdctComponent(f"IDCT_{i}", i)) for i in range(1, n_idct + 1)]
    reorder = app.add(
        ReorderComponent(
            "Reorder",
            stream.height,
            stream.width,
            n_upstream=None if dynamic_upstream else n_idct,
            keep_frames=keep_frames,
            drop_incomplete=drop_incomplete,
            frame_sink=frame_sink,
            quiescence_timeout_ns=quiescence_timeout_ns,
        )
    )
    for i, idct in enumerate(idcts, start=1):
        app.connect(fetch, f"fetchIdct{i}", idct, f"_fetchIdct{i}")
        app.connect(idct, "idctReorder", reorder, "idctReorder")
    if with_observer:
        app.attach_observer(targets=[fetch, *idcts, reorder])
    return app


def build_sti7200_assembly(
    stream: MJPEGStream,
    use_stored_coefficients: bool = False,
    keep_frames: bool = False,
) -> Application:
    """The Figure 7 application: Fetch-Reorder on the ST40 (cpu 0) and
    one IDCT per ST231 accelerator."""
    app = Application("mjpeg-sti7200")
    fr = app.add(
        FetchReorderComponent(
            "Fetch-Reorder",
            stream,
            use_stored_coefficients=use_stored_coefficients,
            keep_frames=keep_frames,
        )
    ).place(cpu=0)
    idcts = []
    for i in range(1, STI7200_IDCTS + 1):
        idct = app.add(IdctComponent(f"IDCT_{i}", i)).place(cpu=i)
        idcts.append(idct)
        app.connect(fr, f"fetchIdct{i}", idct, f"_fetchIdct{i}")
        app.connect(idct, "idctReorder", fr, "idctReorder")
    app.attach_observer(targets=[fr, *idcts])
    return app
