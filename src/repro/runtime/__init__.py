"""EMBera runtimes: where components meet platforms.

Three runtimes execute the same, unmodified components:

- :class:`~repro.runtime.native.NativeRuntime` -- real Python threads and
  queues; the closest analogue of the paper's Linux/pthread
  implementation, with real wall-clock timestamps.
- :class:`~repro.runtime.simulated.SmpSimRuntime` -- components as
  pthreads of the simulated Linux system on the 16-core NUMA SMP model,
  optionally placed on N shards, each a block of its cores
  (``ShardedSmpSimRuntime(n)`` takes the shard count first).
- :class:`~repro.runtime.simulated.Sti7200SimRuntime` -- components as
  OS21 tasks (one per CPU) with EMBX distributed-object interfaces on the
  STi7200 model.

:func:`~repro.runtime.build.build_run` assembles any of them from one
:class:`~repro.runtime.build.RunConfig`, with the planes it asks for.

The runtime is the only place observation attaches: it creates a probe
and an observation-service flow per component, and implements the
OS-level report with whatever the platform offers (``gettimeofday`` wall
time on Linux, ``task_time`` CPU time on OS21 -- the same query, answered
platform-specifically, as in the paper).
"""

from repro.runtime.base import Runtime, RuntimeError_
from repro.runtime.build import ConfigError, RunConfig, build_run
from repro.runtime.native import NativeRuntime
from repro.runtime.simulated import (
    ShardedSmpSimRuntime,
    SimRuntime,
    SmpSimRuntime,
    Sti7200SimRuntime,
)

__all__ = [
    "ConfigError",
    "NativeRuntime",
    "RunConfig",
    "Runtime",
    "RuntimeError_",
    "ShardedSmpSimRuntime",
    "SimRuntime",
    "SmpSimRuntime",
    "Sti7200SimRuntime",
    "build_run",
]
