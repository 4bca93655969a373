"""Linux-like OS: processes, POSIX-style threads, gettimeofday.

The paper measured a default pthread stack of 8 392 kB on its platform
(section 4.4); that value is the default here so the memory-observation
numbers of Table 1 fall out of the same accounting path.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional

from repro.hw.platform import Platform
from repro.sim.executor import ExecEngine, RoundRobinPolicy, SchedThread
from repro.sim.kernel import Kernel
from repro.sim.process import Command

#: Default pthread stack size observed by the paper (8 392 kB).
DEFAULT_STACK_BYTES = 8392 * 1024


class PThread:
    """A POSIX-thread handle: scheduling state plus stack attributes."""

    __slots__ = ("tid", "name", "stack_bytes", "sched", "process", "_stack_handle")

    def __init__(
        self,
        tid: int,
        name: str,
        stack_bytes: int,
        sched: SchedThread,
        process: "LinuxProcess",
        stack_handle: int,
    ) -> None:
        self.tid = tid
        self.name = name
        self.stack_bytes = stack_bytes
        self.sched = sched
        self.process = process
        self._stack_handle = stack_handle

    # pthread_attr_getstacksize analogue (paper's memory observation).
    def attr_getstacksize(self) -> int:
        """The configured stack size (pthread attribute semantics)."""
        return self.stack_bytes

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PThread {self.tid} {self.name!r}>"


class LinuxProcess:
    """A user process: an address space (heap accounting) plus threads."""

    def __init__(self, system: "LinuxSystem", pid: int, name: str, home_node: int = 0) -> None:
        self.system = system
        self.pid = pid
        self.name = name
        self.home_node = home_node
        self.threads: Dict[int, PThread] = {}
        self._next_ptr = 1
        self.heap_bytes = 0
        self.heap_peak = 0

    # -- memory -------------------------------------------------------------

    def malloc(self, nbytes: int, label: str = "heap", node: Optional[int] = None) -> int:
        """Allocate from the region of ``node`` (default: the home node)."""
        region = self.system.node_region(self.home_node if node is None else node)
        region.alloc(nbytes, label=f"{self.name}:{label}", time_ns=self.system.kernel.now)
        ptr = self._next_ptr
        self._next_ptr += 1
        self.heap_bytes += nbytes
        self.heap_peak = max(self.heap_peak, self.heap_bytes)
        return ptr

    # -- threads --------------------------------------------------------------

    def pthread_create(
        self,
        body: Generator[Command, Any, Any],
        name: str = "thread",
        stack_bytes: int = DEFAULT_STACK_BYTES,
        priority: int = 0,
        affinity: Optional[Iterable[int]] = None,
    ) -> PThread:
        """Spawn a thread; its stack is charged to the home node's memory."""
        region = self.system.node_region(self.home_node)
        stack_handle = region.alloc(
            stack_bytes, label=f"{self.name}:{name}:stack", time_ns=self.system.kernel.now
        )
        sched = self.system.engine.spawn(body, name=name, priority=priority, affinity=affinity)
        tid = self.system._next_tid()
        thread = PThread(tid, name, stack_bytes, sched, self, stack_handle)
        self.threads[tid] = thread

        def _release_stack(_value: Any) -> None:
            region.free(stack_handle, time_ns=self.system.kernel.now)

        sched.done.on_trigger(_release_stack)
        return thread


class LinuxSystem:
    """The machine-wide OS instance over a simulated platform."""

    def __init__(
        self,
        kernel: Kernel,
        platform: Platform,
        quantum_ns: int = 4_000_000,
    ) -> None:
        """Threads time-share the cores round-robin on ``quantum_ns``."""
        self.kernel = kernel
        self.platform = platform
        self.engine = ExecEngine(kernel, platform.cores, RoundRobinPolicy(quantum_ns))
        self.processes: Dict[int, LinuxProcess] = {}
        self._pid = 0
        self._tid = 0

    def _next_tid(self) -> int:
        self._tid += 1
        return self._tid

    def spawn_process(self, name: str, home_node: int = 0) -> LinuxProcess:
        """Create a user process (address-space accounting)."""
        self._pid += 1
        proc = LinuxProcess(self, self._pid, name, home_node=home_node)
        self.processes[self._pid] = proc
        return proc

    def node_region(self, node: int):
        """The memory region backing a NUMA node."""
        return self.platform.region(f"node{node}")

    def shutdown(self) -> None:
        """Allow scheduler loops to exit once all threads have finished."""
        self.engine.shutdown()
