"""Distributed objects and the EMBX_Send / EMBX_Receive primitives.

Cost model
----------
A send writes the message into the shared SDRAM block.  Transfers up to
the hardware transfer-buffer size (50 kB) stream at the sender CPU's
native per-byte copy cost; beyond that the transport falls back to a
bounce-buffer double copy, so the marginal per-byte cost jumps by
``BOUNCE_PENALTY``.  This is what produces Figure 8's shape: "the
performance of the EMBera send function is linear for message sizes
smaller than 50 kB.  Over 50 kB, the send function decreases its
performance."

Per-CPU asymmetry (ST40 slower than ST231 at equal size) comes from the
``memcpy_byte`` cycle costs in the platform's CPU models -- the caller
passes the model of the CPU it runs on, and a send yields one
:class:`~repro.sim.executor.Compute` of the nanoseconds that model
charges for the copy, plus the signal latency.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.hw.cpu import CpuModel
from repro.hw.memory import MemoryRegion
from repro.sim.executor import Compute
from repro.sim.process import Command
from repro.sim.resources import Channel

#: Hardware transfer-buffer size; messages beyond it pay the bounce copy.
BOUNCE_BUFFER_BYTES = 50 * 1024
#: Marginal per-byte multiplier past the transfer buffer.
BOUNCE_PENALTY = 1.8
#: Interrupt-controller signalling latency per message (ns).
SIGNAL_LATENCY_NS = 5_000
#: Default distributed-object footprint, Table 3: "25 kB for one
#: distributed object".
DEFAULT_OBJECT_BYTES = 25 * 1024


class EmbxError(Exception):
    """Raised on invalid transport usage."""


class EmbxTimeout(EmbxError):
    """An ``EMBX_Receive`` with a deadline expired before data arrived."""


class DistributedObject:
    """A named shared-memory region readable through EMBX_Receive.

    The footprint is fixed at creation time, matching the paper: "This
    size value is fixed and gathered at component creation time."
    """

    __slots__ = (
        "name", "size_bytes", "owner_cpu", "queue", "sends", "receives", "peak_depth",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        owner_cpu: int,
        queue: Channel,
    ) -> None:
        self.name = name
        self.size_bytes = size_bytes
        self.owner_cpu = owner_cpu
        self.queue = queue
        #: Per-object traffic accounting: message counts and the deepest
        #: the object's queue ever got (the transport-level backpressure
        #: high-water mark the causal analysis cross-checks against).
        self.sends = 0
        self.receives = 0
        self.peak_depth = 0

    def requeue(self, payload: Any, nbytes: int) -> None:
        """Front-insert a retransmitted message (recovery replay).

        The copy already paid its transport cost on the original
        ``EMBX_Send``; the replay is served from the sender-side
        retransmit buffer straight into the object's queue, so only the
        object-level accounting moves (the receive side still charges its
        read copy when the message is drained).
        """
        self.queue.put_front((payload, nbytes))
        self.sends += 1
        depth = len(self.queue)
        if depth > self.peak_depth:
            self.peak_depth = depth

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DistributedObject {self.name!r} {self.size_bytes}B cpu={self.owner_cpu}>"


class EmbxTransport:
    """Factory and send/receive engine over one shared memory region."""

    def __init__(self, kernel, shared_region: MemoryRegion) -> None:
        self.kernel = kernel
        self.shared_region = shared_region
        self.objects: dict[str, DistributedObject] = {}
        self.sends = 0
        self.receives = 0
        #: Interrupts raised per owner CPU: every send signals the
        #: receiving CPU through the shared interrupt controller.
        self.interrupts_by_cpu: dict[int, int] = {}

    # -- telemetry -------------------------------------------------------------

    def stamp_metrics(self, registry) -> None:
        """Stamp the transport's live state into a
        :class:`~repro.metrics.telemetry.MetricsRegistry` as gauges:
        per-distributed-object traffic and depth, transport totals, and
        interrupts per owner CPU.  Gauges (not counters) because these
        are point-in-time readings of transport-owned state, sampled at
        collection time rather than streamed per event."""
        ts = registry.last_ns
        for name in sorted(self.objects):
            obj = self.objects[name]
            registry.gauge("embx_object_sends", object=name).set(obj.sends, ts)
            registry.gauge("embx_object_receives", object=name).set(obj.receives, ts)
            registry.gauge("embx_object_peak_depth", object=name).set(obj.peak_depth, ts)
            registry.gauge("embx_object_queue_depth", object=name).set(len(obj.queue), ts)
        registry.gauge("embx_sends").set(self.sends, ts)
        registry.gauge("embx_receives").set(self.receives, ts)
        for cpu in sorted(self.interrupts_by_cpu):
            registry.gauge("embx_interrupts", cpu=cpu).set(self.interrupts_by_cpu[cpu], ts)

    # -- object lifecycle ------------------------------------------------------

    def create_object(
        self, name: str, owner_cpu: int, size_bytes: int = DEFAULT_OBJECT_BYTES
    ) -> DistributedObject:
        """Allocate a distributed object in the shared region."""
        if name in self.objects:
            raise EmbxError(f"distributed object {name!r} already exists")
        self.shared_region.alloc(size_bytes, label=f"embx:{name}", time_ns=self.kernel.now)
        queue = Channel(self.kernel, name=f"embx.{name}")
        obj = DistributedObject(name, size_bytes, owner_cpu, queue)
        self.objects[name] = obj
        return obj

    # -- cost model ---------------------------------------------------------------

    def effective_copy_bytes(self, nbytes: int) -> float:
        """Bytes charged at the CPU's memcpy rate, including bounce penalty."""
        if nbytes <= BOUNCE_BUFFER_BYTES:
            return float(nbytes)
        return BOUNCE_BUFFER_BYTES + BOUNCE_PENALTY * (nbytes - BOUNCE_BUFFER_BYTES)

    # -- primitives ------------------------------------------------------------------

    def send(
        self, obj: DistributedObject, payload: Any, nbytes: int, model: CpuModel
    ) -> Generator[Command, Any, None]:
        """``EMBX_Send``: asynchronous write into the distributed object.

        Charges the *calling* CPU, whose cost model is ``model``, for the
        copy plus the interrupt signal as one command, then deposits the
        message.  Returns as soon as the write is done (the receiver need
        not be waiting).
        """
        if nbytes < 0:
            raise EmbxError(f"negative message size {nbytes}")
        yield Compute(
            "ns", model.cost_ns("memcpy_byte", self.effective_copy_bytes(nbytes)) + SIGNAL_LATENCY_NS
        )
        obj.queue.put((payload, nbytes))
        obj.sends += 1
        depth = len(obj.queue)
        if depth > obj.peak_depth:
            obj.peak_depth = depth
        self.sends += 1
        self.interrupts_by_cpu[obj.owner_cpu] = self.interrupts_by_cpu.get(obj.owner_cpu, 0) + 1

    def receive(
        self, obj: DistributedObject, timeout_ns: Optional[int] = None
    ) -> Generator[Command, Any, tuple]:
        """``EMBX_Receive``: synchronous read from the distributed object.

        Blocks until a message is available, charges the calling CPU for
        the read copy, and returns ``(payload, nbytes)``.  With
        ``timeout_ns`` set, raises :class:`EmbxTimeout` when the deadline
        expires first (the blocking-with-timeout variant of the API).
        """
        if timeout_ns is None:
            payload, nbytes = yield from obj.queue.get()
        else:
            ok, item = yield from obj.queue.get_with_deadline(timeout_ns)
            if not ok:
                raise EmbxTimeout(
                    f"EMBX_Receive on {obj.name!r} expired after {timeout_ns} ns"
                )
            payload, nbytes = item
        yield Compute("memcpy_byte", self.effective_copy_bytes(nbytes))
        obj.receives += 1
        self.receives += 1
        return payload, nbytes
