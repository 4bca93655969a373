"""CPU execution engine: schedulable threads running on modelled cores.

This is the substrate shared by the Linux-like scheduler
(:mod:`repro.oslinux`) and the OS21-like RTOS scheduler
(:mod:`repro.os21`).  A *schedulable* is a generator that may yield:

- :class:`~repro.sim.process.Timeout`  -- sleep off-CPU,
- :class:`~repro.sim.process.WaitEvent` -- block off-CPU on an event
  (so :class:`~repro.sim.resources.Channel` et al. work unchanged inside
  OS threads),
- :class:`Compute` -- occupy the CPU for a modelled amount of work,
- :class:`YieldCpu` -- voluntarily relinquish the CPU.

Each core is dispatched by plain kernel callbacks over its state: the
current thread, the armed slice timer, the slice start and the quantum
budget left.  Compute work runs in *interruptible slices*.  A slice
that nothing can interrupt -- :meth:`Kernel.advance_to` proves its end
would be the next event the kernel pops -- is charged inline: the clock
moves to its end and the thread keeps running in the same callback.
Any other slice arms one timer; a preemption cancels it and ends the
slice early.  When the timer fires with nothing else due, the thread
continues inline again; otherwise it continues through one ``call_soon``
behind the entries already due.  Either way every event keeps the order
it had with a dispatcher process waiting on a per-slice event, and the
event count is O(#contended scheduling decisions), not O(compute time /
quantum) nor O(#slices), while priority preemption stays exact.

Scheduling policy is pluggable (:class:`SchedPolicy`); the engine itself
is policy-free.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, Optional, Protocol, Sequence

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Kernel
from repro.sim.process import Command, Timeout, WaitEvent


class Compute(Command):
    """Occupy the CPU for ``units`` of work of class ``opclass``.

    The nanosecond cost is resolved at dispatch time by the core's CPU
    model (``core.model.cost_ns(opclass, units)``), so heterogeneous
    platforms charge the same logical work differently per core.
    """

    __slots__ = ("opclass", "units")

    def __init__(self, opclass: str, units: float) -> None:
        if units < 0:
            raise SimulationError(f"negative compute units: {units}")
        self.opclass = opclass
        self.units = units

    def __repr__(self) -> str:  # pragma: no cover
        return f"Compute({self.opclass!r}, {self.units})"


class YieldCpu(Command):
    """Voluntarily relinquish the CPU; the thread stays READY."""

    __slots__ = ()


# -- thread state machine ----------------------------------------------------

NEW = "NEW"
READY = "READY"
RUNNING = "RUNNING"
SLEEPING = "SLEEPING"
BLOCKED = "BLOCKED"
DONE = "DONE"
FAILED = "FAILED"


class SchedThread:
    """A schedulable execution flow (pthread / OS21 task analogue)."""

    __slots__ = (
        "engine",
        "body",
        "name",
        "priority",
        "affinity",
        "state",
        "core",
        "done",
        "result",
        "error",
        "cpu_time_ns",
        "start_time_ns",
        "end_time_ns",
        "context_switches",
        "_remaining_compute_ns",
        "_send_value",
        "_throw_exc",
    )

    def __init__(
        self,
        engine: "ExecEngine",
        body: Generator[Command, Any, Any],
        name: str,
        priority: int = 0,
        affinity: Optional[frozenset[int]] = None,
    ) -> None:
        if not hasattr(body, "send"):
            raise SimulationError(f"thread body must be a generator, got {type(body)!r}")
        self.engine = engine
        self.body = body
        self.name = name
        self.priority = priority
        self.affinity = affinity
        self.state = NEW
        self.core: Optional[CpuCore] = None
        self.done = Event(engine.kernel, name=f"{name}.done")
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.cpu_time_ns = 0
        self.start_time_ns: Optional[int] = None
        self.end_time_ns: Optional[int] = None
        self.context_switches = 0
        self._remaining_compute_ns: Optional[int] = None
        self._send_value: Any = None
        self._throw_exc: Optional[BaseException] = None

    @property
    def alive(self) -> bool:
        """True while still executing."""
        return self.state not in (DONE, FAILED)

    def runnable_on(self, core: "CpuCore") -> bool:
        """Whether affinity allows this thread on the core."""
        return self.affinity is None or core.index in self.affinity

    def wall_time_ns(self) -> Optional[int]:
        """Start-to-finish elapsed virtual time, once the thread is done."""
        if self.start_time_ns is None or self.end_time_ns is None:
            return None
        return self.end_time_ns - self.start_time_ns

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SchedThread {self.name!r} {self.state} prio={self.priority}>"


class CpuCore:
    """One modelled core: a CPU model plus its dispatch state."""

    __slots__ = (
        "engine",
        "index",
        "model",
        "current",
        "busy_ns",
        "_idle",
        "_slice_timer",
        "_slice_start",
        "_quantum",
        "_budget",
    )

    def __init__(self, engine: "ExecEngine", index: int, model: Any) -> None:
        self.engine = engine
        self.index = index
        self.model = model
        self.current: Optional[SchedThread] = None
        self.busy_ns = 0
        self._idle = False  # parked with nothing to run, waiting for a kick
        self._slice_timer = None  # armed while a slice can be interrupted
        self._slice_start = 0
        self._quantum: Optional[int] = None
        self._budget: Optional[int] = None  # quantum left in this turn

    @property
    def idle(self) -> bool:
        """True when no thread occupies the core."""
        return self.current is None

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` this core spent running threads."""
        return self.busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0

    def kick(self) -> None:
        """Wake the dispatcher if it is idle-waiting."""
        if self._idle:
            self._idle = False
            engine = self.engine
            engine.kernel.call_soon(engine._dispatch, self)

    def preempt(self) -> None:
        """Interrupt the current compute slice (no-op when not computing)."""
        timer = self._slice_timer
        if timer is not None:
            timer.cancel()
            self._slice_timer = None
            engine = self.engine
            engine.kernel.call_soon(engine._end_slice, self, True)

    def __repr__(self) -> str:  # pragma: no cover
        running = self.current.name if self.current else "idle"
        return f"<CpuCore {self.index} {running}>"


class SchedPolicy(Protocol):
    """Strategy interface for scheduling decisions."""

    def enqueue(self, engine: "ExecEngine", thread: SchedThread) -> None:
        """Add a READY thread to the policy's queue(s)."""

    def pick(self, engine: "ExecEngine", core: CpuCore) -> Optional[SchedThread]:
        """Pop the next thread to run on ``core`` (or None)."""

    def has_ready(self, engine: "ExecEngine", core: CpuCore) -> bool:
        """Whether any READY thread could run on ``core``."""

    def should_preempt(self, running: SchedThread, candidate: SchedThread) -> bool:
        """Whether ``candidate`` becoming READY should preempt ``running``."""

    def quantum_ns(self, thread: SchedThread, contended: bool) -> Optional[int]:
        """Max slice length; None means run to completion."""


class ExecEngine:
    """Drives threads over a set of cores under a scheduling policy."""

    def __init__(
        self,
        kernel: Kernel,
        core_models: Sequence[Any],
        policy: SchedPolicy,
    ) -> None:
        self.kernel = kernel
        self.policy = policy
        self.cores = [CpuCore(self, i, model) for i, model in enumerate(core_models)]
        self.threads: list[SchedThread] = []
        self.alive_threads = 0
        self.on_context_switch: Optional[Callable[[CpuCore, Optional[SchedThread], Optional[SchedThread]], None]] = None
        self._shutdown = False
        for core in self.cores:
            kernel.call_soon(self._dispatch, core)

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
        """Let the cores stop for good once every spawned thread has
        finished: an idle core then no longer waits for a kick."""
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

    def _dispatch(self, core: CpuCore) -> None:
        """Pick and run threads on an idle core until one arms a slice
        timer or nothing is left to pick."""
        policy = self.policy
        while True:
            thread = policy.pick(self, core)
            if thread is None:
                core._idle = not (self._shutdown and self.alive_threads == 0)
                return
            core.current = thread
            thread.core = core
            thread.state = RUNNING
            thread.context_switches += 1
            if self.on_context_switch is not None:
                self.on_context_switch(core, None, thread)
            quantum = policy.quantum_ns(thread, policy.has_ready(self, core))
            core._quantum = core._budget = quantum
            offcpu = self._run(core, thread)
            if offcpu is None:
                return
            self._switch_out(core, thread, offcpu)

    def _switch_out(self, core: CpuCore, thread: SchedThread, offcpu: bool) -> None:
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

    @staticmethod
    def _charge(core: CpuCore, thread: SchedThread, ran: int) -> int:
        """Charge ``ran`` ns of compute; returns the compute left."""
        core.busy_ns += ran
        thread.cpu_time_ns += ran
        left = thread._remaining_compute_ns - ran
        thread._remaining_compute_ns = left if left > 0 else None
        return left

    def _run(self, core: CpuCore, thread: SchedThread, ran: Optional[int] = None) -> Optional[bool]:
        """Run ``thread`` on ``core``, first charging a slice of ``ran`` ns
        that has just ended.  Returns True when the thread blocks, sleeps
        or finishes, False when it is preempted by its quantum or yields,
        and None when it waits on an armed slice timer."""
        kernel = self.kernel
        while True:
            if ran is not None:
                left = self._charge(core, thread, ran)
                budget = core._budget
                if budget is not None:
                    budget -= ran
                    if left > 0 and budget <= 0:
                        if self.policy.has_ready(self, core):
                            return False
                        # Nobody waiting: keep the CPU for another quantum.
                        budget = core._quantum
                    core._budget = budget
                ran = None

            remaining = thread._remaining_compute_ns
            if remaining is None:
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
                    remaining = int(core.model.cost_ns(cmd.opclass, cmd.units))
                    if remaining <= 0:
                        continue
                    thread._remaining_compute_ns = remaining
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

            # Execute (part of) the pending compute as one slice.
            budget = core._budget
            run_ns = remaining if budget is None or remaining < budget else budget
            if kernel.advance_to(kernel.now + run_ns):
                ran = run_ns  # nothing can interrupt it: charge inline
                continue
            core._slice_start = kernel.now
            core._slice_timer = kernel.schedule(run_ns, self._slice_timer_fired, core)
            return None

    def _slice_timer_fired(self, core: CpuCore) -> None:
        core._slice_timer = None
        kernel = self.kernel
        if kernel.advance_to(kernel.now):
            self._end_slice(core, False)
        else:
            kernel.call_soon(self._end_slice, core, False)

    def _end_slice(self, core: CpuCore, preempted: bool) -> None:
        """Continue ``core`` after its slice timer fired or a preemption
        cut the slice short."""
        thread = core.current
        ran = self.kernel.now - core._slice_start
        if preempted:
            self._charge(core, thread, ran)
            offcpu = False
        else:
            offcpu = self._run(core, thread, ran)
            if offcpu is None:
                return
        self._switch_out(core, thread, offcpu)
        self._dispatch(core)

    # Optional error hook (set by OS layers); default None re-raises.
    on_thread_error: Optional[Callable[[SchedThread, BaseException], None]] = None


# -- policies ------------------------------------------------------------------


class RoundRobinPolicy:
    """Single global FIFO queue with quantum-based time slicing.

    Approximates the fair time-sharing behaviour of the Linux scheduler for
    CPU-bound threads; no priority preemption.
    """

    def __init__(self, quantum_ns: int = 4_000_000) -> None:
        self.quantum = int(quantum_ns)
        self._queue: Deque[SchedThread] = deque()

    def enqueue(self, engine: ExecEngine, thread: SchedThread) -> None:
        """Add a READY thread to the run queue(s)."""
        self._queue.append(thread)

    def pick(self, engine: ExecEngine, core: CpuCore) -> Optional[SchedThread]:
        """Pop the next thread to run on the core (or None)."""
        for _ in range(len(self._queue)):
            t = self._queue.popleft()
            if not t.alive:
                continue
            if t.runnable_on(core):
                return t
            self._queue.append(t)
        return None

    def has_ready(self, engine: ExecEngine, core: CpuCore) -> bool:
        """Whether any READY thread could run on the core."""
        return any(t.alive and t.runnable_on(core) for t in self._queue)

    def should_preempt(self, running: SchedThread, candidate: SchedThread) -> bool:
        """Whether a newly READY thread preempts the running one."""
        return False

    def rebalance_on_ready(self, running: SchedThread, candidate: SchedThread) -> bool:
        """Time sharing: a newly ready thread ends the running slice so
        the queue is re-evaluated with quantum bounds."""
        return True

    def quantum_ns(self, thread: SchedThread, contended: bool) -> Optional[int]:
        """Slice bound for the thread (None = run to completion)."""
        return self.quantum if contended else None


class FairPolicy:
    """CFS-flavoured fair scheduling: pick the runnable thread with the
    least *weighted CPU time* (its virtual runtime).

    Weights follow a nice-like geometric ladder: each priority step
    multiplies the entitled share by ``weight_step`` (priority 0 = weight
    1.0; higher priority = larger share).  Because the engine already
    accounts ``cpu_time_ns`` per thread, the policy needs no bookkeeping
    of its own -- vruntime is ``cpu_time_ns / weight``.
    """

    def __init__(self, quantum_ns: int = 4_000_000, weight_step: float = 1.25) -> None:
        if weight_step <= 0:
            raise SimulationError(f"weight_step must be positive, got {weight_step}")
        self.quantum = int(quantum_ns)
        self.weight_step = weight_step
        self._ready: list[SchedThread] = []

    def weight(self, thread: SchedThread) -> float:
        """Scheduling weight derived from the thread priority."""
        return self.weight_step**thread.priority

    def _vruntime(self, thread: SchedThread) -> float:
        return thread.cpu_time_ns / self.weight(thread)

    def enqueue(self, engine: ExecEngine, thread: SchedThread) -> None:
        """Add a READY thread to the run queue(s)."""
        self._ready.append(thread)

    def pick(self, engine: ExecEngine, core: CpuCore) -> Optional[SchedThread]:
        """Pop the next thread to run on the core (or None)."""
        best = None
        for t in self._ready:
            if not t.alive or not t.runnable_on(core):
                continue
            if best is None or self._vruntime(t) < self._vruntime(best):
                best = t
        if best is not None:
            self._ready.remove(best)
            self._ready = [t for t in self._ready if t.alive]
        return best

    def has_ready(self, engine: ExecEngine, core: CpuCore) -> bool:
        """Whether any READY thread could run on the core."""
        return any(t.alive and t.runnable_on(core) for t in self._ready)

    def should_preempt(self, running: SchedThread, candidate: SchedThread) -> bool:
        """Whether a newly READY thread preempts the running one."""
        return False

    def rebalance_on_ready(self, running: SchedThread, candidate: SchedThread) -> bool:
        # End the slice if the newcomer would plausibly win.  The running
        # thread's in-flight slice is not charged yet, so compare with
        # <=: ties resolve after preemption, against charged time.
        """Whether a wakeup ends the current slice for re-pick."""
        return self._vruntime(candidate) <= self._vruntime(running)

    def quantum_ns(self, thread: SchedThread, contended: bool) -> Optional[int]:
        """Slice bound for the thread (None = run to completion)."""
        return self.quantum if contended else None


class PriorityPolicy:
    """Per-priority FIFO queues with immediate preemption (RTOS-style).

    Higher ``priority`` values run first, matching OS21 semantics.  Equal
    priorities round-robin on the quantum.
    """

    def __init__(self, quantum_ns: int = 1_000_000) -> None:
        self.quantum = int(quantum_ns)
        self._queues: dict[int, Deque[SchedThread]] = {}

    def enqueue(self, engine: ExecEngine, thread: SchedThread) -> None:
        """Add a READY thread to the run queue(s)."""
        self._queues.setdefault(thread.priority, deque()).append(thread)

    def _iter_priorities(self) -> list[int]:
        return sorted(self._queues, reverse=True)

    def pick(self, engine: ExecEngine, core: CpuCore) -> Optional[SchedThread]:
        """Pop the next thread to run on the core (or None)."""
        for prio in self._iter_priorities():
            q = self._queues[prio]
            for _ in range(len(q)):
                t = q.popleft()
                if not t.alive:
                    continue
                if t.runnable_on(core):
                    return t
                q.append(t)
        return None

    def has_ready(self, engine: ExecEngine, core: CpuCore) -> bool:
        """Whether any READY thread could run on the core."""
        return any(
            t.alive and t.runnable_on(core) for q in self._queues.values() for t in q
        )

    def should_preempt(self, running: SchedThread, candidate: SchedThread) -> bool:
        """Whether a newly READY thread preempts the running one."""
        return candidate.priority > running.priority

    def quantum_ns(self, thread: SchedThread, contended: bool) -> Optional[int]:
        """Slice bound for the thread (None = run to completion)."""
        return self.quantum if contended else None
