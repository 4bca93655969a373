"""One-shot triggerable events, the basic blocking primitive.

A thread blocks on an :class:`Event` by yielding
:class:`~repro.sim.process.WaitEvent`.  ``trigger(value)`` resumes every
waiter at the current simulation instant (in wait order) and records the
value, which becomes the result of the ``yield``.  Waiters that subscribe
after the trigger resume immediately.
"""

from __future__ import annotations

from typing import Any, Callable, List, TYPE_CHECKING

from repro.sim.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class Event:
    """A one-shot level-triggered event carrying an optional value."""

    __slots__ = ("kernel", "name", "_triggered", "_value", "_waiters", "_callbacks")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: List[Callable[[Any], None]] = []
        self._callbacks: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether the event has fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The trigger value (error before the event fires)."""
        if not self._triggered:
            raise SchedulingError(f"event {self.name!r} read before trigger")
        return self._value

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        """Register a plain callback (no process involved).  Fires at
        trigger time, or immediately (synchronously) if already triggered."""
        if self._triggered:
            callback(self._value)
        else:
            self._callbacks.append(callback)

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        """Internal: used by the executor when interpreting WaitEvent."""
        if self._triggered:
            # Resume at the current instant but asynchronously, so the
            # waiting process does not re-enter while another is running.
            # call_soon keeps schedule(0, ...) FIFO semantics while
            # skipping the event heap (kernel fast path).
            self.kernel.call_soon(resume, self._value)
        else:
            self._waiters.append(resume)

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters at the current instant."""
        if self._triggered:
            raise SchedulingError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        callbacks, self._callbacks = self._callbacks, []
        call_soon = self.kernel.call_soon
        for resume in waiters:
            call_soon(resume, value)
        for cb in callbacks:
            cb(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered={self._value!r}" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"
