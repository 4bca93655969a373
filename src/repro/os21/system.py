"""OS21-like RTOS: tasks and per-CPU clocks.

Fidelity notes mirrored from the paper (section 5):

- OS21 is "a lightweight, real-time multitasking operating system";
  scheduling is priority-preemptive (:class:`~repro.sim.executor.PriorityPolicy`).
- Deployment loads "one binary code per CPU", so every task is pinned to
  its CPU at creation -- there is no migration.
- ``task_time`` returns the time a task has spent *running* (CPU time),
  which is why Table 3's IDCT figure (95 s) is far below the pipeline
  makespan: the accelerators idle while the ST40 crunches.
- ``time_now`` "gives the local time on each CPU": each CPU's clock has a
  small constant offset, so cross-CPU timestamp arithmetic is deliberately
  untrustworthy, exactly as on the real part.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.hw.memory import MemoryRegion
from repro.hw.platform import Platform
from repro.sim.executor import ExecEngine, PriorityPolicy, SchedThread
from repro.sim.kernel import Kernel
from repro.sim.process import Command

#: Default OS21 task stack+descriptor footprint used by the EMBera port.
#: Table 3: "60 kB for the task data and component structure".
DEFAULT_TASK_BYTES = 60 * 1024
#: OS21 round-robin quantum among tasks of one priority on one CPU.
QUANTUM_NS = 1_000_000


class OS21Task:
    """An OS21 task pinned to one CPU."""

    __slots__ = ("name", "cpu", "priority", "task_bytes", "sched", "_mem_handle", "_mem_region")

    def __init__(
        self,
        name: str,
        cpu: int,
        priority: int,
        task_bytes: int,
        sched: SchedThread,
        mem_handle: int,
        mem_region: MemoryRegion,
    ) -> None:
        self.name = name
        self.cpu = cpu
        self.priority = priority
        self.task_bytes = task_bytes
        self.sched = sched
        self._mem_handle = mem_handle
        self._mem_region = mem_region

    def __repr__(self) -> str:  # pragma: no cover
        return f"<OS21Task {self.name!r} cpu={self.cpu} prio={self.priority}>"


class OS21System:
    """One OS21 instance per CPU, modelled as a shared engine with pinning."""

    def __init__(self, kernel: Kernel, platform: Platform) -> None:
        self.kernel = kernel
        self.platform = platform
        self.engine = ExecEngine(kernel, platform.cores, PriorityPolicy(QUANTUM_NS))
        self.tasks: Dict[str, OS21Task] = {}
        # Unsynchronised per-CPU clocks: constant boot-time offsets (ns).
        self.clock_offsets_ns = [1_000 * (7 * i % 13) for i in range(platform.n_cores)]

    # -- memory -----------------------------------------------------------------

    def local_region_of_cpu(self, cpu: int) -> MemoryRegion:
        """The memory a task's descriptor/stack lives in: ST231s use their
        local SRAM; the ST40 (and any general-purpose CPU) uses SDRAM."""
        name = f"st231_{cpu - 1}_local"
        if name in self.platform.regions:
            return self.platform.regions[name]
        return self.platform.region("sdram")

    # -- tasks --------------------------------------------------------------------

    def task_create(
        self,
        body: Generator[Command, Any, Any],
        name: str,
        cpu: int,
        priority: int = 5,
        task_bytes: int = DEFAULT_TASK_BYTES,
    ) -> OS21Task:
        """Create and start a task pinned to ``cpu``; its ``task_bytes``
        are charged to the CPU's local memory until it finishes."""
        if not 0 <= cpu < self.platform.n_cores:
            raise ValueError(f"no CPU {cpu} on {self.platform.name}")
        if name in self.tasks:
            raise ValueError(f"task name {name!r} already in use")
        mem_region = self.local_region_of_cpu(cpu)
        mem_handle = mem_region.alloc(task_bytes, label=f"{name}:task", time_ns=self.kernel.now)
        sched = self.engine.spawn(body, name=name, priority=priority, affinity=[cpu])
        task = OS21Task(name, cpu, priority, task_bytes, sched, mem_handle, mem_region)
        self.tasks[name] = task

        def _release(_value: Any) -> None:
            mem_region.free(mem_handle, time_ns=self.kernel.now)

        sched.done.on_trigger(_release)
        return task

    # -- time -----------------------------------------------------------------------

    def task_time_us(self, task: OS21Task) -> int:
        """OS21 ``task_time``: microseconds of CPU time consumed by the task."""
        return task.sched.cpu_time_ns // 1_000

    def shutdown(self) -> None:
        """Let scheduler loops exit once all tasks finish."""
        self.engine.shutdown()
