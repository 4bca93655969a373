"""OS21-like RTOS substrate for the simulated STi7200 platform.

Models the OS21 API surface the paper's EMBera port uses: task creation
with per-CPU deployment (one binary per CPU), priority-preemptive
scheduling, ``task_time`` (per-task CPU time) and per-CPU local clock
offsets (``time_now``).
"""

from repro.os21.system import OS21System, OS21Task

__all__ = ["OS21System", "OS21Task"]
