"""The discrete-event kernel: a clock plus a binary heap of callbacks.

The kernel is intentionally minimal -- processes, events and resources are
layered on top of ``schedule_at`` / ``run``.  Determinism contract: events
with equal timestamps fire in scheduling order (FIFO tie-break via a
monotonically increasing sequence number).

Design
------
Pending events live in one ``heapq`` of ``(time, seq, handle, callback,
args)`` tuples.  Sequence numbers are unique, so a comparison never gets
past ``seq``: every sift is a C comparison of two ints.  Beside it, a
FIFO deque holds the same-instant wakeups of :meth:`Kernel.call_soon` as
tuples of the same shape; the dispatcher merges the two heads by
``(time, seq)``, so an event fires in exactly the order it would have
taken through the heap.

- ``cancel`` is lazy: it flags the handle, and the dispatcher drops
  flagged entries when they reach a head.  Once at least
  ``_COMPACT_MIN`` cancelled entries linger *and* they make up half of
  everything stored, one rebuild filters them out, so stored entries
  stay below ``2 * live + _COMPACT_MIN``.
- ``pending()`` is O(1): a live-event counter is maintained by
  schedule, cancel and dispatch instead of scanning the queues.
- The entry, not the handle, carries the callback and its arguments, so
  dropping a dispatched entry releases them; an :class:`EventHandle` is
  only a cancellation token.
- :meth:`Kernel.advance_to` lets a running callback move the clock to a
  later instant itself when a timer for that instant would be the very
  next entry :meth:`Kernel.run` pops.  The CPU dispatcher uses it to run
  compute slices that nothing can interrupt without a heap round trip,
  so ``events_executed`` does not count those slices.

Ablation A11 (``benchmarks/test_ablation_kernel_queue.py``) keeps the
calendar queue, far-future spill heap and timer wheel this replaced,
and a pooled-handle variant, as references.  The heap is faster end to
end and on every kernel micro-bench except a 100k-event backlog that no
workload builds; pooling lost the micro-benches and tied end to end.
Ablation A12 (``benchmarks/test_ablation_cpu_dispatch.py``) keeps the
two insert shortcuts that followed -- ``schedule`` with ``_push``
inlined, handles built with ``object.__new__`` -- which did not win end
to end either.  See docs/performance.md, "Simulation kernel: one heap".
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from repro.sim.errors import DeadlockError, SchedulingError

#: Compaction threshold: rebuild the queues once at least this many
#: cancelled entries linger *and* they make up half the stored entries.
_COMPACT_MIN = 64


class EventHandle:
    """Cancellation token for a scheduled callback.  ``_kernel`` is
    cleared when the event fires, which turns a late ``cancel`` into a
    no-op."""

    __slots__ = ("time", "seq", "cancelled", "_kernel")

    def __init__(self, time: int, seq: int, kernel: "Kernel") -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._kernel: Optional[Kernel] = kernel

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call repeatedly,
        including after the event has already fired (then a no-op)."""
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None:
            kernel._alive -= 1
            n = kernel._n_cancelled + 1
            kernel._n_cancelled = n
            if n >= _COMPACT_MIN and n * 2 >= len(kernel._heap) + len(kernel._imm):
                kernel._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


class Kernel:
    """Discrete-event simulation kernel with integer-nanosecond time.

    Usage::

        k = Kernel()
        k.schedule(1000, print, "fires at t=1000ns")
        k.run()
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: list[tuple] = []  # (time, seq, handle, callback, args)
        self._imm: deque[tuple] = deque()  # same-instant FIFO, same shape
        self._live_processes: int = 0  # maintained by Process
        #: Callbacks dispatched by ``run``; work done inline after an
        #: ``advance_to`` (compute slices) is not counted.
        self.events_executed: int = 0
        #: Consulted by ``run()`` when the queue drains with processes
        #: still alive: a zero-arg callable returning True when it
        #: injected new work (e.g. drained an inter-shard mailbox), in
        #: which case the loop continues instead of raising
        #: :class:`DeadlockError`.
        self.on_idle: Optional[Callable[[], bool]] = None
        #: Per-shard kernels disable local deadlock detection: an idle
        #: shard with pending cross-shard input is not deadlocked, so the
        #: check belongs to the coordinator (after draining mailboxes).
        self.deadlock_check: bool = True
        self._alive: int = 0  # scheduled, not cancelled, not yet fired
        self._n_cancelled: int = 0  # cancelled entries still stored
        #: Latest instant ``advance_to`` may reach: the running
        #: ``run(until=...)`` bound, or -1 (refuse) outside ``run`` and
        #: under ``max_events``.
        self._horizon: float = -1

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        return self._push(self._now + int(delay_ns), callback, args)

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SchedulingError(f"cannot schedule in the past: {time_ns} < {self._now}")
        return self._push(int(time_ns), callback, args)

    def schedule_timer(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule a **deadline timer**: semantics identical to
        :meth:`schedule`.  Kept as its own entry point so callers name
        timers that are usually cancelled before firing (receive
        deadlines, watchdogs) and instrumentation can count them."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        return self._push(self._now + int(delay_ns), callback, args)

    def _push(self, time_ns: int, callback: Callable[..., None], args: tuple) -> EventHandle:
        seq = self._seq
        handle = EventHandle(time_ns, seq, self)
        self._seq = seq + 1
        self._alive += 1
        heappush(self._heap, (time_ns, seq, handle, callback, args))
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant, bypassing
        the heap.  Equivalent to ``schedule(0, ...)`` -- including FIFO
        ordering relative to it -- but O(1); used by the event/channel
        wakeup fast path."""
        seq = self._seq
        now = self._now
        handle = EventHandle(now, seq, self)
        self._seq = seq + 1
        self._alive += 1
        self._imm.append((now, seq, handle, callback, args))
        return handle

    def _compact(self) -> None:
        """Drop every cancelled entry from both queues, in place (the
        dispatch loop holds references to the queue objects)."""
        heap = self._heap
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapify(heap)
        imm = self._imm
        live = [e for e in imm if not e[2].cancelled]
        imm.clear()
        imm.extend(live)
        self._n_cancelled = 0

    # -- dispatch -------------------------------------------------------------

    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled callbacks.  O(1)."""
        return self._alive

    def peek(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the queue is empty."""
        imm = self._imm
        heap = self._heap
        while imm and imm[0][2].cancelled:
            imm.popleft()
            self._n_cancelled -= 1
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._n_cancelled -= 1
        if imm:
            if heap and heap[0] < imm[0]:
                return heap[0][0]
            return imm[0][0]
        return heap[0][0] if heap else None

    def idle_advance(self, time_ns: int) -> None:
        """Move the idle clock forward to ``time_ns`` without dispatching.

        The sharded coordinator's gap hop: a shard whose next activity is
        a staged envelope at ``time_ns`` has nothing to execute in
        ``(now, time_ns)``, so the clock jumps there directly.  Refuses
        to travel backwards -- that would re-open a past the shard
        already published lookahead promises about."""
        time_ns = int(time_ns)
        if time_ns < self._now:
            raise SchedulingError(
                f"cannot idle-advance backwards: {time_ns} < {self._now}"
            )
        self._now = time_ns

    def advance_to(self, time_ns: int) -> bool:
        """From inside a callback: move the clock to ``time_ns`` if a
        timer scheduled now for ``time_ns`` would be the very next entry
        :meth:`run` pops, and return True.  Otherwise change nothing and
        return False.

        That holds when no same-instant wakeup is queued, every heap
        entry is later than ``time_ns`` (an entry at exactly ``time_ns``
        is older than the timer, so it would fire first) and ``time_ns``
        is within the running ``run(until=...)``.  The caller then does
        inline what the timer's callback would have done, so the order of
        every other event is unchanged.  Always False outside ``run`` and
        under ``run(max_events=...)``, whose count the skip would change.
        A cancelled entry not yet dropped counts as pending: refusing is
        always exact.
        """
        if time_ns > self._horizon or self._imm:
            return False
        heap = self._heap
        if heap and heap[0][0] <= time_ns:
            return False
        self._now = time_ns
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        have fired.  Returns the final simulated time.

        Stopping at ``until`` leaves the clock at ``until``; an ``until``
        in the past raises :class:`SchedulingError`.  Raises
        :class:`DeadlockError` if the queue drains while registered
        processes are still alive (everybody blocked on events that nobody
        can trigger).
        """
        if until is not None and until < self._now:
            raise SchedulingError(f"cannot run until the past: {until} < {self._now}")
        heap = self._heap
        imm = self._imm
        executed = 0
        if max_events is None:
            self._horizon = inf if until is None else until
        else:
            self._horizon = -1
        try:
            while max_events is None or executed < max_events:
                if imm:
                    entry = imm[0]
                    from_heap = heap and heap[0] < entry
                    if from_heap:
                        entry = heap[0]
                elif heap:
                    entry = heap[0]
                    from_heap = True
                else:
                    if self.on_idle is not None and self.on_idle():
                        continue  # the hook injected new work (mailbox drain)
                    if self._live_processes > 0 and self.deadlock_check:
                        raise DeadlockError(
                            f"no pending events but {self._live_processes} process(es) still alive"
                        )
                    break
                t, _, handle, callback, args = entry
                if not handle.cancelled and until is not None and t > until:
                    self._now = until
                    break
                if from_heap:
                    heappop(heap)
                else:
                    imm.popleft()
                if handle.cancelled:
                    self._n_cancelled -= 1
                    continue
                self._now = t
                self.events_executed += 1
                self._alive -= 1
                handle._kernel = None
                callback(*args)
                executed += 1
        finally:
            self._horizon = -1
        return self._now
