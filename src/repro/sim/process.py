"""Commands a simulated thread body yields.

A body is a Python generator that yields :class:`Command` objects:

- ``Timeout(ns)``      -- resume after ``ns`` nanoseconds of virtual time.
- ``WaitEvent(event)`` -- resume when ``event`` triggers; the yield
  expression evaluates to the trigger value.

Sub-behaviours compose with plain ``yield from``.  The executor
(:mod:`repro.sim.executor`) runs every component body; the OS models
and resources yield these commands too.
"""

from __future__ import annotations

from repro.sim.errors import SimulationError
from repro.sim.events import Event


class Command:
    """Base class for everything a process may yield."""

    __slots__ = ()


class Timeout(Command):
    """Advance virtual time by ``delay_ns`` for the yielding process."""

    __slots__ = ("delay_ns",)

    def __init__(self, delay_ns: int) -> None:
        if delay_ns < 0:
            raise SimulationError(f"negative timeout: {delay_ns}")
        self.delay_ns = int(delay_ns)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay_ns})"


class WaitEvent(Command):
    """Block until ``event`` triggers; yield evaluates to its value."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitEvent({self.event!r})"
