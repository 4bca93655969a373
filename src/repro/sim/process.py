"""Generator-based simulation processes.

A process body is a Python generator that yields :class:`Command` objects:

- ``Timeout(ns)``      -- resume after ``ns`` nanoseconds of virtual time.
- ``WaitEvent(event)`` -- resume when ``event`` triggers; the yield
  expression evaluates to the trigger value.

Sub-behaviours compose with plain ``yield from``.  The generator's return
value becomes the process result, exposed through ``proc.done`` (an
:class:`~repro.sim.events.Event` triggered with the result) and
``proc.result``.

Exceptions raised inside a process propagate out of ``Kernel.run()`` by
default (``daemon=False`` processes), which keeps failures loud during
tests; set ``on_error`` to capture instead.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.errors import ProcessKilled, SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Kernel


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


ProcessBody = Generator[Command, Any, Any]


class Process:
    """A running generator coupled to the kernel.

    Parameters
    ----------
    kernel:
        The event kernel driving this process.
    body:
        A generator yielding :class:`Command` objects.
    name:
        Debugging label.
    start_delay_ns:
        Virtual-time delay before the first resume.
    on_error:
        Optional handler ``fn(process, exception)``.  When absent, an
        exception inside the body is re-raised out of the kernel loop.
    daemon:
        Daemon processes do not count towards the kernel's deadlock
        detection -- use for service loops (e.g. the fault clock) that
        legitimately idle forever.
    """

    __slots__ = ("kernel", "body", "name", "done", "on_error", "daemon", "_alive", "_pending_handle")

    def __init__(
        self,
        kernel: Kernel,
        body: ProcessBody,
        name: str = "proc",
        start_delay_ns: int = 0,
        on_error: Optional[Callable[["Process", BaseException], None]] = None,
        daemon: bool = False,
    ) -> None:
        if not hasattr(body, "send"):
            raise SimulationError(f"process body must be a generator, got {type(body)!r}")
        self.kernel = kernel
        self.body = body
        self.name = name
        self.done = Event(kernel, name=f"{name}.done")
        self.on_error = on_error
        self.daemon = daemon
        self._alive = True
        self._pending_handle = None
        if not daemon:
            kernel._live_processes += 1
        # Zero-delay starts ride the immediate queue: call_soon is
        # ordering-identical to schedule(0, ...) by the kernel contract
        # but skips the heap insert entirely.
        if start_delay_ns:
            self._pending_handle = kernel.schedule(start_delay_ns, self._resume, None)
        else:
            self._pending_handle = kernel.call_soon(self._resume, None)

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while still executing."""
        return self._alive

    @property
    def result(self) -> Any:
        """The generator's return value; valid once ``done`` triggered."""
        return self.done.value

    def kill(self) -> None:
        """Throw :class:`ProcessKilled` into the body at the current instant."""
        if not self._alive:
            return
        if self._pending_handle is not None:
            self._pending_handle.cancel()
            self._pending_handle = None
        self._resume(None, exc=ProcessKilled(f"process {self.name!r} killed"))

    # -- engine ------------------------------------------------------------

    def _finish(self, result: Any) -> None:
        self._alive = False
        if not self.daemon:
            self.kernel._live_processes -= 1
        self.done.trigger(result)

    def _fail(self, exc: BaseException) -> None:
        self._alive = False
        if not self.daemon:
            self.kernel._live_processes -= 1
        if isinstance(exc, ProcessKilled):
            # A kill is an expected external termination, not an error.
            self.done.trigger(None)
            return
        if self.on_error is not None:
            self.on_error(self, exc)
            if not self.done.triggered:
                self.done.trigger(None)
        else:
            raise exc

    def _resume(self, value: Any, exc: Optional[BaseException] = None) -> None:
        if not self._alive:
            return
        self._pending_handle = None
        try:
            if exc is not None:
                command = self.body.throw(exc)
            else:
                command = self.body.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except ProcessKilled as killed:
            self._fail(killed)
            return
        except BaseException as error:  # noqa: BLE001 - deliberate funnel
            self._fail(error)
            return
        self._dispatch(command)

    def _dispatch(self, command: Command) -> None:
        if isinstance(command, Timeout):
            # Timeout(0) -- the cooperative-yield idiom -- takes the
            # immediate-queue fast path (same FIFO order, no heap).
            delay = command.delay_ns
            if delay:
                self._pending_handle = self.kernel.schedule(delay, self._resume, None)
            else:
                self._pending_handle = self.kernel.call_soon(self._resume, None)
        elif isinstance(command, WaitEvent):
            command.event.add_waiter(self._resume)
        else:
            self._resume(
                None,
                exc=SimulationError(
                    f"process {self.name!r} yielded non-command {command!r}; "
                    "did you forget 'yield from'?"
                ),
            )

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"
