"""Reference model for the executor differential suite: the per-core
generator dispatcher that ``repro.sim.executor`` replaced, kept
verbatim.

Each core runs a dispatcher :class:`reference_process.Process`, and
every compute slice arms a slice-end timer and waits on an
:class:`~repro.sim.events.Event` that the timer or a preemption
triggers.  ``repro.sim.executor.ExecEngine`` runs slices that nothing
can interrupt inline instead; ``test_executor_reference.py`` drives both
engines through the same scenarios and requires identical context-switch
logs, per-thread statistics, core busy times and final clocks.

Threads, commands and policies are shared with ``repro.sim.executor``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.executor import (
    BLOCKED,
    DONE,
    FAILED,
    READY,
    RUNNING,
    SLEEPING,
    Compute,
    SchedPolicy,
    SchedThread,
    YieldCpu,
)
from repro.sim.kernel import Kernel
from repro.sim.process import Command, Timeout, WaitEvent

from reference_process import Process


class ReferenceCpuCore:
    """One modelled core: a CPU model plus a dispatcher process."""

    __slots__ = (
        "engine",
        "index",
        "model",
        "current",
        "busy_ns",
        "_idle_event",
        "_slice_event",
        "_slice_timer",
        "_dispatcher",
    )

    def __init__(self, engine: "ReferenceExecEngine", index: int, model: Any) -> None:
        self.engine = engine
        self.index = index
        self.model = model
        self.current: Optional[SchedThread] = None
        self.busy_ns = 0
        self._idle_event: Optional[Event] = None
        self._slice_event: Optional[Event] = None
        self._slice_timer = None
        self._dispatcher: Optional[Process] = None

    @property
    def idle(self) -> bool:
        """True when no thread occupies the core."""
        return self.current is None

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` this core spent running threads."""
        return self.busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0

    def kick(self) -> None:
        """Wake the dispatcher if it is idle-waiting."""
        if self._idle_event is not None and not self._idle_event.triggered:
            ev, self._idle_event = self._idle_event, None
            ev.trigger(None)

    def preempt(self) -> None:
        """Interrupt the current compute slice (no-op when not computing)."""
        if self._slice_event is not None and not self._slice_event.triggered:
            if self._slice_timer is not None:
                self._slice_timer.cancel()
                self._slice_timer = None
            ev, self._slice_event = self._slice_event, None
            ev.trigger("preempt")

    def __repr__(self) -> str:  # pragma: no cover
        running = self.current.name if self.current else "idle"
        return f"<CpuCore {self.index} {running}>"


class ReferenceExecEngine:
    """Drives threads over a set of cores under a scheduling policy."""

    def __init__(
        self,
        kernel: Kernel,
        core_models: Sequence[Any],
        policy: SchedPolicy,
    ) -> None:
        self.kernel = kernel
        self.policy = policy
        self.cores = [ReferenceCpuCore(self, i, model) for i, model in enumerate(core_models)]
        self.threads: list[SchedThread] = []
        self.alive_threads = 0
        self.on_context_switch: Optional[Callable[[ReferenceCpuCore, Optional[SchedThread], Optional[SchedThread]], None]] = None
        self._shutdown = False
        for core in self.cores:
            core._dispatcher = Process(
                kernel, self._dispatch_loop(core), name=f"cpu{core.index}.dispatch", daemon=True
            )

    # -- public API ----------------------------------------------------------

    def spawn(
        self,
        body: Generator[Command, Any, Any],
        name: str = "thread",
        priority: int = 0,
        affinity: Optional[Iterable[int]] = None,
    ) -> SchedThread:
        """Create a thread and make it READY immediately."""
        aff = frozenset(affinity) if affinity is not None else None
        if aff is not None and not any(c.index in aff for c in self.cores):
            raise SimulationError(f"affinity {sorted(aff)} matches no core")
        thread = SchedThread(self, body, name=name, priority=priority, affinity=aff)
        self.threads.append(thread)
        self.alive_threads += 1
        thread.start_time_ns = self.kernel.now
        self._make_ready(thread)
        return thread

    def shutdown(self) -> None:
        """Let dispatcher loops exit once every spawned thread has finished.

        Without this the idle dispatcher loops would stay blocked forever.
        """
        self._shutdown = True
        for core in self.cores:
            core.kick()

    def _thread_finished(self) -> None:
        self.alive_threads -= 1
        if self._shutdown and self.alive_threads == 0:
            for core in self.cores:
                core.kick()

    # -- internals -------------------------------------------------------------

    def _make_ready(self, thread: SchedThread) -> None:
        thread.state = READY
        self.policy.enqueue(self, thread)
        # Wake an idle core that can run it; otherwise consider preemption.
        for core in self.cores:
            if core.idle and thread.runnable_on(core):
                core.kick()
                return
        for core in self.cores:
            running = core.current
            if (
                running is not None
                and thread.runnable_on(core)
                and self.policy.should_preempt(running, thread)
            ):
                core.preempt()
                return
        # Time-sharing policies rebalance when a thread becomes ready and
        # every core is busy: the running thread's (possibly unbounded)
        # slice ends and the policy re-picks.  RTOS-style priority
        # scheduling must NOT do this -- an equal-priority task does not
        # displace the running one.
        rebalance = getattr(self.policy, "rebalance_on_ready", None)
        if rebalance is not None:
            for core in self.cores:
                running = core.current
                if (
                    running is not None
                    and thread.runnable_on(core)
                    and rebalance(running, thread)
                ):
                    core.preempt()
                    return

    def _wake(self, thread: SchedThread, value: Any) -> None:
        if not thread.alive:
            return
        thread._send_value = value
        self._make_ready(thread)

    def _dispatch_loop(self, core: ReferenceCpuCore) -> Generator[Command, Any, None]:
        kernel = self.kernel
        while True:
            thread = self.policy.pick(self, core)
            if thread is None:
                if self._shutdown and self.alive_threads == 0:
                    return
                ev = Event(kernel, name=f"cpu{core.index}.idle")
                core._idle_event = ev
                yield WaitEvent(ev)
                continue

            core.current = thread
            thread.core = core
            thread.state = RUNNING
            thread.context_switches += 1
            if self.on_context_switch is not None:
                self.on_context_switch(core, None, thread)

            offcpu = yield from self._run_thread_on(core, thread)

            core.current = None
            if self.on_context_switch is not None:
                self.on_context_switch(core, thread, None)
            if not offcpu and thread.alive:
                # Preempted or quantum-expired: back to the ready queue.
                thread.state = READY
                self.policy.enqueue(self, thread)

    def _advance(self, thread: SchedThread) -> tuple[str, Any]:
        """Resume the thread generator one step; classify the outcome."""
        try:
            if thread._throw_exc is not None:
                exc, thread._throw_exc = thread._throw_exc, None
                cmd = thread.body.throw(exc)
            else:
                value, thread._send_value = thread._send_value, None
                cmd = thread.body.send(value)
        except StopIteration as stop:
            return "done", stop.value
        except BaseException as error:  # noqa: BLE001 - funnelled to thread.error
            return "failed", error
        return "cmd", cmd

    def _run_thread_on(
        self, core: ReferenceCpuCore, thread: SchedThread
    ) -> Generator[Command, Any, bool]:
        """Run ``thread`` until it blocks/sleeps/finishes (returns True) or
        is preempted / exhausts its quantum (returns False)."""
        kernel = self.kernel
        contended = self.policy.has_ready(self, core)
        quantum = self.policy.quantum_ns(thread, contended)
        slice_budget = quantum

        while True:
            # Finish any partially executed compute first.
            if thread._remaining_compute_ns is None:
                kind, payload = self._advance(thread)
                if kind == "done":
                    thread.state = DONE
                    thread.result = payload
                    thread.end_time_ns = kernel.now
                    thread.done.trigger(payload)
                    self._thread_finished()
                    return True
                if kind == "failed":
                    thread.state = FAILED
                    thread.error = payload
                    thread.end_time_ns = kernel.now
                    self._thread_finished()
                    if self.on_thread_error is not None:
                        self.on_thread_error(thread, payload)
                        thread.done.trigger(None)
                        return True
                    raise payload
                cmd = payload
                if isinstance(cmd, Compute):
                    cost = int(core.model.cost_ns(cmd.opclass, cmd.units))
                    if cost <= 0:
                        continue
                    thread._remaining_compute_ns = cost
                elif isinstance(cmd, Timeout):
                    thread.state = SLEEPING
                    kernel.schedule(cmd.delay_ns, self._wake, thread, None)
                    return True
                elif isinstance(cmd, WaitEvent):
                    thread.state = BLOCKED
                    cmd.event.add_waiter(lambda v, t=thread: self._wake(t, v))
                    return True
                elif isinstance(cmd, YieldCpu):
                    return False
                else:
                    thread._throw_exc = SimulationError(
                        f"thread {thread.name!r} yielded non-command {cmd!r}; "
                        "did you forget 'yield from'?"
                    )
                    continue

            # Execute (part of) the pending compute as an interruptible slice.
            remaining = thread._remaining_compute_ns
            run_ns = remaining if slice_budget is None else min(remaining, slice_budget)
            started = kernel.now
            ev = Event(kernel, name=f"cpu{core.index}.slice")
            core._slice_event = ev
            core._slice_timer = kernel.schedule(run_ns, self._end_slice, core, ev)
            reason = yield WaitEvent(ev)
            core._slice_event = None
            core._slice_timer = None
            ran = kernel.now - started
            core.busy_ns += ran
            thread.cpu_time_ns += ran
            left = remaining - ran
            thread._remaining_compute_ns = left if left > 0 else None
            if reason == "preempt":
                return False
            if slice_budget is not None:
                slice_budget -= ran
                if thread._remaining_compute_ns is not None and slice_budget <= 0:
                    if self.policy.has_ready(self, core):
                        return False
                    # Nobody waiting: keep the CPU for another quantum.
                    slice_budget = quantum

    @staticmethod
    def _end_slice(core: ReferenceCpuCore, ev: Event) -> None:
        if not ev.triggered:
            core._slice_timer = None
            core._slice_event = None
            ev.trigger("timer")

    # Optional error hook (set by OS layers); default None re-raises.
    on_thread_error: Optional[Callable[[SchedThread, BaseException], None]] = None
