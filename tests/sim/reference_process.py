"""Reference engine for the simulation tests: a generator coupled to
the kernel.

A :class:`Process` body yields the commands of :mod:`repro.sim.process`
(``Timeout``, ``WaitEvent``) and is resumed by plain kernel callbacks.
Every runtime runs its components on :mod:`repro.sim.executor`; this
engine drives kernel, event, resource and shard tests directly, and
``reference_executor.py`` builds its per-core dispatchers on it.

The generator's return value becomes the process result, exposed
through ``proc.done`` (an :class:`~repro.sim.events.Event` triggered
with the result) and ``proc.result``.  Exceptions raised inside a
process propagate out of ``Kernel.run()`` by default, which keeps
failures loud; set ``on_error`` to capture instead.  The engine
counts each kernel's live non-daemon processes itself, and :func:`run`
raises ``DeadlockError`` when every event has drained and one is still
blocked (``Kernel.run`` simply returns).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional
from weakref import WeakKeyDictionary

from repro.sim.errors import ProcessKilled, SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Kernel
from repro.sim.process import Command, Timeout, WaitEvent

ProcessBody = Generator[Command, Any, Any]


class DeadlockError(SimulationError):
    """Raised by :func:`run` when the queue drained while a process is
    still alive (everybody blocked on events that nobody can trigger)."""


#: Live non-daemon processes per kernel.
_live: "WeakKeyDictionary[Kernel, int]" = WeakKeyDictionary()


def run(kernel: Kernel, until: Optional[int] = None) -> int:
    """``kernel.run(until)``, raising :class:`DeadlockError` if the queue
    drained while a non-daemon process of this engine is still alive
    (everybody blocked on events that nobody can trigger)."""
    now = kernel.run(until)
    live = _live.get(kernel, 0)
    if live and kernel.peek() is None:
        raise DeadlockError(f"no pending events but {live} process(es) still alive")
    return now


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
        detection -- use for service loops that legitimately idle
        forever.
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
            _live[kernel] = _live.get(kernel, 0) + 1
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
            _live[self.kernel] -= 1
        self.done.trigger(result)

    def _fail(self, exc: BaseException) -> None:
        self._alive = False
        if not self.daemon:
            _live[self.kernel] -= 1
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
