"""The FIFO message channel, layered on events.

``get`` is a *generator* meant to be used with ``yield from`` inside a
process body::

    item = yield from channel.get()

The generator pattern lets the fast path (item available) return
without suspending, while the slow path blocks on an internal
:class:`~repro.sim.events.Event`.  Wakeups are strictly FIFO.

No-contention fast path: an uncontended ``Channel.put``/``get`` (item
available, nobody blocked) completes synchronously -- no Event object is
allocated and nothing is rescheduled through the kernel.  Contended
wakeups ride :meth:`Kernel.call_soon`, which skips the event heap
while preserving FIFO order with ordinary zero-delay events.  Deadline
receives schedule their timers with :meth:`Kernel.schedule_timer` and
cancel them on delivery.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Kernel
from repro.sim.process import Command, WaitEvent

#: Sentinel delivered to a getter whose deadline expired.  Private to the
#: module so it can never collide with a user item.
_DEADLINE = object()


class Channel:
    """Unbounded FIFO message channel.

    ``put`` never blocks (matching EMBera's asynchronous ``send``);
    ``get`` is a generator that waits for an item.
    """

    def __init__(self, kernel: Kernel, name: str = "chan") -> None:
        self.kernel = kernel
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Non-blocking put: hand the item to the oldest blocked getter,
        or queue it."""
        self.total_put += 1
        getters = self._getters
        if getters:
            getters.popleft().trigger(item)
            self.total_got += 1
        else:
            self._items.append(item)

    def put_front(self, item: Any) -> None:
        """Insert an item at the *head* of the queue -- the retransmission
        primitive: a recovery manager replays unacknowledged messages
        ahead of everything already enqueued, so a restarted receiver
        processes them in the original delivery order.

        With a getter already blocked the item is handed over directly
        (the queue is empty, so head and tail coincide).  Callers that
        front-insert several items must do so in reverse order and only
        while the consumer is not blocked on ``get`` (true for both
        recovery paths: restart replay runs before the behaviour is
        respawned, gap healing runs inside the consumer's own receive).
        """
        self.total_put += 1
        getters = self._getters
        if getters:
            getters.popleft().trigger(item)
            self.total_got += 1
        else:
            self._items.appendleft(item)

    def get(self) -> Generator[Command, Any, Any]:
        """``item = yield from chan.get()`` -- wait for an item (FIFO).

        Fast path: with an item queued this returns without suspending
        (and without allocating an Event)."""
        items = self._items
        if items:
            item = items.popleft()
            self.total_got += 1
            return item
        ev = Event(self.kernel, name=f"{self.name}.get")
        self._getters.append(ev)
        return (yield WaitEvent(ev))

    def get_with_deadline(self, timeout_ns: int) -> Generator[Command, Any, tuple[bool, Any]]:
        """``ok, item = yield from chan.get_with_deadline(ns)`` -- wait for
        an item, but at most ``timeout_ns``; returns ``(False, None)`` on
        expiry.

        The deadline is a kernel timer raced against delivery.  Whichever
        side loses is retired immediately -- the timer is cancelled on
        delivery, the getter is unregistered on expiry -- so repeated
        deadline receives leak neither timers (``Kernel.pending()``
        returns to baseline) nor ghost getters (FIFO wakeup order is
        preserved for later arrivals).  The deadline is scheduled with
        :meth:`Kernel.schedule_timer`; a cancelled one stays in the heap
        as a tombstone until it surfaces or compaction drops it.
        """
        if timeout_ns < 0:
            raise SimulationError(f"negative deadline: {timeout_ns}")
        items = self._items
        if items:
            item = items.popleft()
            self.total_got += 1
            return True, item
        ev = Event(self.kernel, name=f"{self.name}.get")
        self._getters.append(ev)
        timer = self.kernel.schedule_timer(timeout_ns, self._expire_getter, ev)
        item = yield WaitEvent(ev)
        if item is _DEADLINE:
            return False, None
        timer.cancel()
        return True, item

    def _expire_getter(self, ev: Event) -> None:
        """Deadline timer callback: retire the getter unless it already won."""
        if ev.triggered:
            return  # delivery beat the timer at the same instant
        try:
            self._getters.remove(ev)
        except ValueError:  # pragma: no cover - defensive; delivery pops first
            pass
        ev.trigger(_DEADLINE)

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            return True, item
        return False, None
