"""Reference model for the kernel property suite: the pre-calendar
binary-heap kernel, kept verbatim (minus hot-path pooling tweaks that
do not affect observable order).

The calendar-queue kernel in ``repro.sim.kernel`` must be
observationally equivalent to this implementation: identical
``(time, seq)`` dispatch order, identical final clocks, identical
``pending()`` counts and ``DeadlockError`` behaviour.  The property
tests in ``test_kernel_properties.py`` drive both kernels through
randomized schedule/cancel/call_soon/run-until interleavings and
compare traces event by event.

``schedule_timer`` is aliased to ``schedule`` here: the timer wheel is
purely an optimisation path, so a wheel-parked timer must dispatch
exactly as if it had gone through the ordinary queue.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Optional

from repro.sim.errors import SchedulingError

from reference_process import DeadlockError

_COMPACT_MIN = 64
_POOL_MAX = 512


class ReferenceEventHandle:
    """Cancellable handle for a scheduled callback (heap reference)."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_kernel", "_queued", "_in_heap")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        kernel: Optional["ReferenceKernel"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._kernel = kernel
        self._queued = kernel is not None
        self._in_heap = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None and self._queued:
            kernel._alive -= 1
            if self._in_heap:
                kernel._n_cancelled += 1
                if (
                    kernel._n_cancelled >= _COMPACT_MIN
                    and kernel._n_cancelled * 2 >= len(kernel._heap)
                ):
                    kernel._compact()

    def __lt__(self, other: "ReferenceEventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ReferenceEventHandle t={self.time} seq={self.seq} {state}>"


class ReferenceKernel:
    """Binary-heap discrete-event kernel: the oracle for the calendar."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: list[ReferenceEventHandle] = []
        self._imm: deque[ReferenceEventHandle] = deque()
        self._live_processes: int = 0
        self.events_executed: int = 0
        self._alive: int = 0
        self._n_cancelled: int = 0
        self._pool: list[ReferenceEventHandle] = []

    @property
    def now(self) -> int:
        return self._now

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any):
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        return self.schedule_at(self._now + int(delay_ns), callback, *args)

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any):
        if time_ns < self._now:
            raise SchedulingError(f"cannot schedule in the past: {time_ns} < {self._now}")
        handle = self._new_handle(int(time_ns), callback, args)
        handle._in_heap = True
        heapq.heappush(self._heap, handle)
        return handle

    # The timer wheel is an optimisation, not a semantic: a deadline
    # timer must order exactly like an ordinary scheduled event.
    schedule_timer = schedule

    def call_soon(self, callback: Callable[..., None], *args: Any):
        handle = self._new_handle(self._now, callback, args)
        self._imm.append(handle)
        return handle

    def _new_handle(self, time_ns: int, callback: Callable[..., None], args: tuple):
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = time_ns
            handle.seq = self._seq
            handle.callback = callback
            handle.args = args
            handle.cancelled = False
            handle._queued = True
            handle._in_heap = False
        else:
            handle = ReferenceEventHandle(time_ns, self._seq, callback, args, self)
        self._seq += 1
        self._alive += 1
        return handle

    def _discard(self, handle) -> None:
        handle._queued = False
        handle.callback = None
        handle.args = ()
        if len(self._pool) < _POOL_MAX and sys.getrefcount(handle) <= 3:
            self._pool.append(handle)

    def _compact(self) -> None:
        heap = self._heap
        live = [h for h in heap if not h.cancelled]
        removed = len(heap) - len(live)
        if not removed:
            return
        for h in heap:
            if h.cancelled:
                h._queued = False
                h.callback = None
                h.args = ()
        self._n_cancelled -= removed
        heapq.heapify(live)
        self._heap = live

    def _prune_heads(self) -> None:
        imm = self._imm
        while imm and imm[0].cancelled:
            self._discard(imm.popleft())
        heap = self._heap
        while heap and heap[0].cancelled:
            self._n_cancelled -= 1
            self._discard(heapq.heappop(heap))

    def pending(self) -> int:
        return self._alive

    def peek(self) -> Optional[int]:
        self._prune_heads()
        imm, heap = self._imm, self._heap
        if imm:
            if heap and (heap[0].time, heap[0].seq) < (imm[0].time, imm[0].seq):
                return heap[0].time
            return imm[0].time
        return heap[0].time if heap else None

    def step(self) -> bool:
        self._prune_heads()
        imm, heap = self._imm, self._heap
        if imm:
            head = imm[0]
            if heap and (heap[0].time, heap[0].seq) < (head.time, head.seq):
                handle = heapq.heappop(heap)
            else:
                handle = imm.popleft()
        elif heap:
            handle = heapq.heappop(heap)
        else:
            return False
        self._now = handle.time
        self.events_executed += 1
        self._alive -= 1
        handle._queued = False
        callback = handle.callback
        args = handle.args
        callback(*args)
        self._discard(handle)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            nxt = self.peek()
            if nxt is None:
                if self._live_processes > 0:
                    raise DeadlockError(
                        f"no pending events but {self._live_processes} process(es) still alive"
                    )
                break
            if until is not None and nxt > until:
                self._now = until
                break
            self.step()
            executed += 1
        return self._now
