"""The component's window onto the world.

A behaviour generator interacts exclusively through its
:class:`ComponentContext` -- sending on required interfaces, receiving on
provided interfaces, declaring computational work.  Every method that can
block or cost time is a *generator* used with ``yield from``, which is
what lets one behaviour run unmodified on the simulated platforms (where
the yields carry scheduling commands) and on the native thread runtime
(where the generators perform real blocking calls and yield nothing).

The context is also the observation interposition point: send/receive are
timed and counted by the component's
:class:`~repro.core.observation.ObservationProbe` here, so observation
requires no change to behaviour code -- the paper's central claim.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import count
from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.core.errors import ConnectionError_
from repro.core.messages import DATA, NO_SPAN, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.component import Component
    from repro.core.observation import ObservationProbe

#: Transfer verdicts returned by a fault hook's ``on_transfer``.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"


class ComponentContext(ABC):
    """Abstract runtime services for one component."""

    def __init__(self, component: "Component", probe: Optional["ObservationProbe"]) -> None:
        self.component = component
        self.probe = probe
        self._seq = 0
        #: Span allocator shared across the whole deployment (the runtime
        #: installs its own at deploy time so spans are globally unique);
        #: ``next()`` on an itertools.count is atomic under CPython, so
        #: the native thread runtime needs no lock.
        self._span_source = count(1)
        #: Span of the most recently received message: the *cause* stamped
        #: into every message this component emits next, which is what
        #: chains causality through compute stages without touching
        #: behaviour code.
        self._cause = NO_SPAN
        #: The last message this context built (send or deposit) or
        #: returned (receive).  Tracing wrappers read it to attach causal
        #: identity to their events without re-plumbing every signature.
        self.last_message: Optional[Message] = None
        #: Optional fault-injection hook (see :mod:`repro.faults`).  The
        #: hook interposes on every transfer/receive exactly where the
        #: observation probe does, so faults -- like observation -- need
        #: no change to behaviour code.
        self.faults = None
        #: Optional exactly-once delivery hook (see :mod:`repro.recovery`).
        #: Interposes at the same points as ``faults``: stamps delivery
        #: sequence numbers and buffers retransmit copies on send, dedups
        #: duplicates and heals gaps on receive -- again with no change to
        #: behaviour code.
        self.recovery = None

    @property
    def name(self) -> str:
        """The owning component's name."""
        return self.component.name

    # -- runtime primitives (implemented per runtime) -----------------------

    @abstractmethod
    def now_ns(self) -> int:
        """Current timestamp in nanoseconds (platform clock)."""

    def now_us(self) -> int:
        """Microsecond timestamp -- the paper's gettimeofday granularity."""
        return self.now_ns() // 1_000

    @abstractmethod
    def _transfer(self, target, message: Message) -> Generator:
        """Move ``message`` into the provided interface ``target``'s
        binding, charging transport costs.  Generator."""

    @abstractmethod
    def _receive_from(self, provided, timeout_ns: Optional[int] = None) -> Generator:
        """Block until a message is available on ``provided``; return it.
        With ``timeout_ns`` set, raise
        :class:`~repro.core.errors.DeadlineError` when the deadline
        expires first.  Generator."""

    @abstractmethod
    def compute(self, opclass: str, units: float) -> Generator:
        """Declare ``units`` of ``opclass`` computational work.  Generator."""

    def sleep(self, delay_ns: int) -> Generator:  # pragma: no cover - runtime-specific
        """Suspend this execution flow for ``delay_ns`` (virtual time on
        the simulated runtimes, wall time on the native one).  Generator."""
        raise NotImplementedError

    def _depth_of(self, provided) -> int:  # pragma: no cover - runtime-specific
        """Current queue depth of a provided interface's binding (used by
        the mailbox-overflow fault model)."""
        raise NotImplementedError

    # -- public API used by behaviours ----------------------------------------

    def send(
        self,
        required_name: str,
        payload: Any,
        kind: str = DATA,
        tag: str = "",
        size_bytes: int = -1,
    ) -> Generator:
        """Send a message through a required interface (asynchronous).

        ``yield from ctx.send("output", block)``
        """
        req = self.component.get_required(required_name)
        if req.target is None:
            raise ConnectionError_(f"{req.qualified_name} is not connected")
        self._seq += 1
        t0 = self.now_ns()
        message = Message(
            payload=payload,
            kind=kind,
            tag=tag,
            src=self.component.name,
            src_interface=required_name,
            seq=self._seq,
            size_bytes=size_bytes,
            sent_at_us=t0 // 1_000,
            span=next(self._span_source),
            cause=self._cause,
        )
        self.last_message = message
        recovery = self.recovery
        if recovery is not None:
            # Stamp the delivery sequence and buffer a retransmit copy
            # *before* fault interposition: a message the injector drops
            # (or a crash mid-send) stays replayable from the buffer.
            recovery.on_send(self, required_name, req.target, message)
        faults = self.faults
        verdict = DELIVER
        if faults is not None:
            verdict = yield from faults.on_transfer(self, required_name, req.target, message)
        if verdict != DROP:
            yield from self._transfer(req.target, message)
            if verdict == DUPLICATE:
                yield from self._transfer(req.target, message)
        if self.probe is not None:
            # A dropped message was still *sent* by this component; the
            # loss happens in transport, so send accounting is unchanged.
            self.probe.record_send(required_name, message, self.now_ns() - t0)

    def receive(self, provided_name: str, timeout_ns: Optional[int] = None) -> Generator:
        """Receive the next message from a provided interface (blocking).

        ``msg = yield from ctx.receive("input")``

        ``timeout_ns`` arms a per-receive deadline: when it expires before
        a message arrives, :class:`~repro.core.errors.DeadlineError` is
        raised (on every runtime).
        """
        prov = self.component.get_provided(provided_name)
        faults = self.faults
        recovery = self.recovery
        t0 = self.now_ns()
        while True:
            if recovery is not None:
                # Checkpoint opportunity: the receive boundary is the one
                # point where every recoverable component's state is
                # consistent with its counters.
                recovery.before_receive(self)
            if faults is not None:
                yield from faults.before_receive(self, provided_name)
            message = yield from self._receive_from(prov, timeout_ns)
            if recovery is None or recovery.on_message(self, provided_name, message):
                break
            # Duplicate deduped or a sequence gap healed by front-requeued
            # replays: the popped message was not delivered -- poll again.
        if message.span != NO_SPAN:
            # Record the causal edge: whatever this component emits next
            # was caused by this reception.
            self._cause = message.span
        self.last_message = message
        if faults is not None:
            yield from faults.after_receive(self, provided_name, message)
        if recovery is not None:
            recovery.on_delivered(self, message)
        if self.probe is not None:
            self.probe.record_receive(
                provided_name, message, self.now_ns() - t0, now_us=self.now_us()
            )
        return message

    def deposit(
        self,
        provided_name: str,
        payload: Any,
        kind: str = DATA,
        tag: str = "",
    ) -> Generator:
        """Place a message into one of this component's *own* provided
        interfaces -- e.g. the Reorder component delivering reassembled
        frames into its ``display`` mailbox for the display controller to
        drain.  Deposits are not ``send`` operations: they do not count in
        the application-level communication counters (Table 2 shows
        Reorder with zero sends).

        ``yield from ctx.deposit("display", image)``
        """
        prov = self.component.get_provided(provided_name)
        self._seq += 1
        message = Message(
            payload=payload,
            kind=kind,
            tag=tag,
            src=self.component.name,
            src_interface=provided_name,
            seq=self._seq,
            sent_at_us=self.now_us(),
            span=next(self._span_source),
            cause=self._cause,
        )
        self.last_message = message
        t0 = self.now_ns()
        yield from self._transfer(prov, message)
        if self.probe is not None:
            self.probe.record_deposit(provided_name, message, self.now_ns() - t0)

    def try_receive(self, provided_name: str):
        """Non-blocking receive; returns the message or None.  Not a
        generator -- usable where polling semantics are wanted.

        Successful polls feed the observation probe just like blocking
        receives, so Table-2 receive counts stay correct for polling
        components (duration 0: the poll never blocked).
        """
        prov = self.component.get_provided(provided_name)
        recovery = self.recovery
        while True:
            message = self._try_receive_from(prov)
            if message is None:
                return None
            if recovery is None or recovery.on_message(self, provided_name, message):
                break
        if message.span != NO_SPAN:
            self._cause = message.span
        self.last_message = message
        if recovery is not None:
            recovery.on_delivered(self, message)
        if self.probe is not None:
            self.probe.record_receive(provided_name, message, 0, now_us=self.now_us())
        return message

    def _try_receive_from(self, provided):  # pragma: no cover - runtime-specific
        raise NotImplementedError

    # -- dynamic memory (the memory-evolution observation extension) --------

    def alloc(self, nbytes: int, label: str = "heap") -> Generator:
        """Allocate component heap memory from the platform.

        ``handle = yield from ctx.alloc(65536)``

        Allocations are charged to the component's memory domain (NUMA
        node / local SRAM) and tracked by the observation probe, feeding
        the paper's "evolution of memory during the execution" query.
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        yield from self.compute("syscall", 1)
        handle = self._alloc(nbytes, label)
        if self.probe is not None:
            self.probe.record_alloc(nbytes, self.now_us())
        return handle

    def free(self, handle) -> Generator:
        """Release a previous :meth:`alloc`.

        ``yield from ctx.free(handle)``
        """
        yield from self.compute("syscall", 1)
        nbytes = self._free(handle)
        if self.probe is not None:
            self.probe.record_free(nbytes, self.now_us())

    def _alloc(self, nbytes: int, label: str):  # pragma: no cover - runtime-specific
        raise NotImplementedError

    def _free(self, handle) -> int:  # pragma: no cover - runtime-specific
        raise NotImplementedError

    def log(self, text: str) -> None:
        """Debug logging hook; runtimes may route or drop it."""
