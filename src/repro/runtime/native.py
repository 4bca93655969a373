"""Native runtime: real Python threads, the paper's Linux implementation.

"An EMBera application is a Linux user process.  A component is a data
structure and a POSIX thread" (section 4.1).  Here the user process is
the Python interpreter, components are :mod:`threading` threads, and
mailboxes are thread-safe FIFO queues.  Timestamps are real
(``time.perf_counter_ns``), so middleware observations reflect genuine
host-machine behaviour rather than a model.

``send`` *copies* the payload into the mailbox (ndarray/bytes payloads),
matching the mailbox copy semantics of the paper's implementation -- which
is why native send durations grow with message size just as in Figure 4.

Because behaviours interact with the world only through generator-based
context methods that perform their blocking work eagerly and never yield,
the very same components run here and on the simulated platforms.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.component import Component
from repro.core.context import ComponentContext
from repro.core.errors import DeadlineError
from repro.core.messages import CONTROL, Message
from repro.core.observation import ObservationProbe, observation_service_behavior
from repro.oslinux.system import DEFAULT_STACK_BYTES
from repro.runtime.base import ComponentContainer, Runtime, RuntimeError_


def drive(gen: Generator) -> Any:
    """Run a behaviour generator to completion on the calling thread.

    Under the native runtime every context method blocks eagerly, so the
    generator must finish on the first resume; a yielded value means the
    behaviour bypassed the context API with a raw simulation command.
    """
    try:
        command = gen.send(None)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError_(
        f"behaviour yielded {command!r} under the native runtime; "
        "use the ComponentContext API instead of raw sim commands"
    )


class NativeMailbox:
    """A thread-safe FIFO binding for a provided interface."""

    __slots__ = ("queue", "capacity_bytes")

    def __init__(self, capacity_bytes: int) -> None:
        self.queue: "queue.Queue[Message]" = queue.Queue()
        self.capacity_bytes = capacity_bytes

    def put(self, message: Message) -> None:
        """Enqueue a message (non-blocking)."""
        self.queue.put(message)

    def get(self, timeout: float) -> Message:
        """Dequeue a message, blocking up to ``timeout`` seconds."""
        return self.queue.get(timeout=timeout)

    def try_get(self) -> Tuple[bool, Optional[Message]]:
        """Non-blocking dequeue: ``(ok, message)``."""
        try:
            return True, self.queue.get_nowait()
        except queue.Empty:
            return False, None

    def put_front(self, message: Message) -> None:
        """Head-insert a message (recovery retransmission).

        ``queue.Queue`` has no public front-insert, but its deque and
        condition variables are documented extension points; mutating
        under ``mutex`` keeps every invariant a blocked ``get`` relies on.
        """
        q = self.queue
        with q.mutex:
            q.queue.appendleft(message)
            q.unfinished_tasks += 1
            q.not_empty.notify()


def _copy_payload(payload: Any) -> Any:
    """Copy-on-send semantics for buffer-like payloads."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    return payload


class NativeContext(ComponentContext):
    """Context whose generator methods block eagerly and never yield."""

    def __init__(
        self,
        component: Component,
        probe: Optional[ObservationProbe],
        runtime: "NativeRuntime",
    ) -> None:
        super().__init__(component, probe)
        self.runtime = runtime
        self._span_source = runtime.span_source

    def now_ns(self) -> int:
        """Current platform time in nanoseconds."""
        return time.perf_counter_ns()

    def compute(self, opclass: str, units: float) -> Generator:
        # The real Python work *is* the computation on this runtime.
        """Declare computational work (see ComponentContext.compute)."""
        return
        yield  # pragma: no cover - makes this a generator function

    def _transfer(self, target, message: Message) -> Generator:
        message.payload = _copy_payload(message.payload)
        target.binding.put(message)
        return
        yield  # pragma: no cover

    def sleep(self, delay_ns: int) -> Generator:
        """Suspend for ``delay_ns`` of real time."""
        time.sleep(delay_ns / 1e9)
        return
        yield  # pragma: no cover

    def _receive_from(self, provided, timeout_ns: Optional[int] = None) -> Generator:
        # Deadline precedence: explicit per-call timeout, then the
        # component's placed receive_timeout_s, then the runtime default
        # (the old hard-coded deadlock guess, now a typed deadline).
        if timeout_ns is None:
            timeout_s = self.component.placement.get(
                "receive_timeout_s", self.runtime.receive_timeout_s
            )
            timeout_ns = int(timeout_s * 1e9)
        else:
            timeout_s = timeout_ns / 1e9
        t0 = time.perf_counter_ns()
        try:
            message = provided.binding.get(timeout=timeout_s)
        except queue.Empty:
            raise DeadlineError(
                self.component.name,
                provided.name,
                timeout_ns,
                elapsed_ns=time.perf_counter_ns() - t0,
            ) from None
        return message
        yield  # pragma: no cover

    def _depth_of(self, provided) -> int:
        return provided.binding.queue.qsize()

    def _try_receive_from(self, provided):
        ok, message = provided.binding.try_get()
        return message if ok else None

    def _alloc(self, nbytes: int, label: str):
        # Real backing memory, so the numbers reflect genuine pressure.
        handle = self.runtime._next_heap_handle()
        self.runtime._heap[handle] = bytearray(nbytes)
        return handle

    def _free(self, handle) -> int:
        try:
            backing = self.runtime._heap.pop(handle)
        except KeyError:
            raise RuntimeError_(f"freed unknown heap handle {handle!r}") from None
        return len(backing)

    def log(self, text: str) -> None:
        """Record a debug line in the runtime's log buffer."""
        self.runtime.logs.append((time.perf_counter_ns(), self.component.name, text))


class NativeRuntime(Runtime):
    """Runs an EMBera application on real host threads."""

    def __init__(self, receive_timeout_s: float = 30.0, join_timeout_s: float = 120.0) -> None:
        super().__init__()
        self.receive_timeout_s = receive_timeout_s
        self.join_timeout_s = join_timeout_s
        self.logs: List[Tuple[int, str, str]] = []
        self.makespan_ns: Optional[int] = None
        self._errors: Dict[str, BaseException] = {}
        self._lock = threading.Lock()
        self._heap: Dict[int, bytearray] = {}
        self._heap_counter = 0

    def _next_heap_handle(self) -> int:
        with self._lock:
            self._heap_counter += 1
            return self._heap_counter

    def _requeue(self, provided, message: Message) -> None:
        provided.binding.put_front(message)

    # -- lifecycle ---------------------------------------------------------------

    def _bind_component(self, cont: ComponentContainer) -> None:
        for prov in cont.component.provided.values():
            prov.binding = NativeMailbox(prov.mailbox_bytes)

    def _build_contexts(self, cont: ComponentContainer) -> None:
        cont.context = NativeContext(cont.component, cont.probe, self)
        cont.service_context = NativeContext(cont.component, None, self)
        cont.probe.os_adapter = self._os_adapter(cont)
        cont.probe.middleware_adapter = self._mw_adapter(cont)

    def start(self) -> None:
        """Launch every component's behaviour and observation service,
        and start the makespan clock."""
        self._t0 = time.perf_counter_ns()
        super().start()

    def _launch(self, cont: ComponentContainer) -> None:
        thread = threading.Thread(
            target=self._run_behavior, args=(cont,), name=cont.component.name
        )
        cont.handle = thread
        service = threading.Thread(
            target=self._run_service,
            args=(cont,),
            name=f"{cont.component.name}.obsvc",
            daemon=True,
        )
        cont.service_handle = service
        thread.start()
        service.start()

    def _run_behavior(self, cont: ComponentContainer) -> None:
        comp, probe, ctx = cont.component, cont.probe, cont.context
        probe.started_at_us = ctx.now_us()
        cont.extra["thread_cpu_t0"] = time.thread_time_ns()
        self._mark_running(comp)
        try:
            drive(self._behavior_body(cont))
        except BaseException as error:  # noqa: BLE001 - reported in wait()
            with self._lock:
                self._errors[comp.name] = error
            self._mark_stopped(comp, failed=True)
        else:
            self._mark_stopped(comp)
        finally:
            probe.ended_at_us = ctx.now_us()
            cont.extra["thread_cpu_ns"] = time.thread_time_ns() - cont.extra["thread_cpu_t0"]

    def _run_service(self, cont: ComponentContainer) -> None:
        try:
            drive(observation_service_behavior(cont.service_context, cont.probe))
        except (RuntimeError_, DeadlineError):
            pass  # receive timeout at teardown is benign for a daemon service

    def wait(self) -> None:
        """Run/block until all functional behaviours finish."""
        for cont in self.containers.values():
            if cont.handle is not None:
                cont.handle.join(timeout=self.join_timeout_s)
                if cont.handle.is_alive():
                    raise RuntimeError_(
                        f"component {cont.component.name!r} did not finish within "
                        f"{self.join_timeout_s}s"
                    )
        self.makespan_ns = time.perf_counter_ns() - self._t0
        if self._errors:
            name, error = next(iter(self._errors.items()))
            raise RuntimeError_(f"component {name!r} failed: {error!r}") from error

    def collect(
        self, plan: Optional[Iterable[Tuple[str, str]]] = None
    ) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """Run the observer's query flow; returns keyed reports."""
        if self.app is None or self.app.observer is None:
            raise RuntimeError_("no observer attached to the application")
        observer = self.app.observer
        cont = self.container(observer.name)
        plan = list(plan) if plan is not None else self._default_plan()
        return drive(observer.collect(cont.context, plan))

    def stop(self) -> None:
        """Shut down observation services and release the platform."""
        for cont in self.containers.values():
            service = cont.service_handle
            if service is not None and service.is_alive():
                obs = cont.component.provided.get("introspection")
                if obs is not None:
                    obs.binding.put(Message(payload=None, kind=CONTROL, tag="shutdown"))
        for cont in self.containers.values():
            if cont.service_handle is not None:
                cont.service_handle.join(timeout=5.0)

    # -- observation adapter -------------------------------------------------------

    def _os_adapter(self, cont: ComponentContainer):
        def report() -> Dict[str, Any]:
            """Build the report dict for one observation level."""
            comp, probe = cont.component, cont.probe
            data: Dict[str, Any] = {}
            if probe.started_at_us is not None and probe.ended_at_us is not None:
                data["exec_time_us"] = probe.ended_at_us - probe.started_at_us
            stack = comp.placement.get("stack_bytes", DEFAULT_STACK_BYTES)
            iface = comp.interface_bytes()
            data["stack_bytes"] = stack
            data["interface_bytes"] = iface
            data["memory_kb"] = (stack + iface) / 1024
            if "thread_cpu_ns" in cont.extra:
                data["cpu_time_us"] = cont.extra["thread_cpu_ns"] // 1_000
            return data

        return report

    def _busy_ns_of(self, cont: ComponentContainer):
        """Busy time is the real per-thread CPU time accumulated by the
        behaviour (``time.thread_time_ns``), available once it finishes."""
        return cont.extra.get("thread_cpu_ns")

