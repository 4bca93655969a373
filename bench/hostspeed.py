"""Host-speed correction for reported times.

The benchmark runs on shared hosts whose speed changes from second to
second: while other tenants load the same physical cores, caches and
memory, a pure-Python loop runs up to twice as slowly, and CPU time
stretches with wall time, so it is no remedy.  The raw median of a
ten-second run then depends more on when the run happened than on the
code it measured.

A fixed pure-Python task -- the yardstick, doing the heap, dict,
attribute and generator work the simulator's own hot paths do -- is
timed just before and just after every measured run, with the
collector paused so the program's heap cannot change it.  The run's
time is scaled by ``(REFERENCE_S / median of those yardstick times)
** SENSITIVITY``: it estimates the time the run would take on a host
where the yardstick takes ``REFERENCE_S``.  The workloads slow down
less than the yardstick under contention (their numpy, hashing and
allocation work overlaps stalls better), hence the exponent below 1.

Raw times are kept in the detail output.
"""

from __future__ import annotations

import gc
import statistics
from heapq import heappop, heappush
from time import perf_counter
from typing import List, Sequence

#: Yardstick time that defines the reference host: its median on an
#: unloaded 2-vCPU x86_64 host under CPython 3.11.
REFERENCE_S = 0.010

#: Log-slowdown of a workload per log-slowdown of the yardstick.  Fitted
#: on two campaigns of ten processes per workload on that host: among
#: 1, 0.75 and 0.5 it gave the smallest worst-case spread of ``run_s``
#: in both (4.3% and 4.0%, against 9.0% and 5.3% for full correction
#: and 26% and 9.3% raw).
SENSITIVITY = 0.75

#: Heap entries per yardstick run (~10 ms at the reference speed).
SIZE = 9_000


class _Node:
    __slots__ = ("time", "value")

    def __init__(self, time: int, value: int) -> None:
        self.time = time
        self.value = value


def _accumulate():
    total = 0
    while True:
        node = yield total
        total += node.value


def yardstick(size: int = SIZE) -> int:
    """The fixed task; returns a checksum so the work cannot be skipped."""
    heap: list = []
    counts: dict = {}
    acc = _accumulate()
    next(acc)
    for i in range(size):
        heappush(heap, ((i * 7919) % 4096, i, _Node(i, i & 7)))
    total = 0
    while heap:
        t, _i, node = heappop(heap)
        key = t & 255
        counts[key] = counts.get(key, 0) + node.time
        total = acc.send(node)
    return total + len(counts)


def time_yardstick(runs: int = 3) -> List[float]:
    """Seconds taken by ``runs`` yardstick runs, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(runs):
            t0 = perf_counter()
            yardstick()
            times.append(perf_counter() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples: Sequence[float]) -> float:
    """Multiply a raw time measured between ``samples`` by this to
    express it at reference speed."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY
