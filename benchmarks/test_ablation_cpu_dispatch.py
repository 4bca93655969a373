"""Ablation A12 -- inline compute slices, and the kernel's inlined paths.

Two questions:

1. **Inline slices or a heap round trip per slice.**  The CPU
   dispatcher asks :meth:`Kernel.advance_to` whether a compute slice's
   end would be the next event the kernel pops; if so it charges the
   slice and keeps running the thread in the same callback.  The
   heap-only arm patches ``advance_to`` to return False, so every slice
   arms a timer and every timer continues the thread through
   ``call_soon`` -- the event traffic of the old generator dispatcher.
   Both arms run the 192-image ``smp_decode`` and ``sti7200_decode`` and
   the 96-image ``sharded_decode`` end to end (start to stop, arms
   rotated each round, median of ``E2E_ROUNDS``; the model must not
   move), and a slice micro-bench: ns per compute slice with 1, 2 and 4
   threads on a 4-core engine.  An untimed counting run reports each
   workload's kernel events and its *inline share*: slices charged
   inline at their start, and slice timers that continued the thread
   inline.
2. **Whether two inlined kernel paths earn their code.**
   ``Kernel.schedule`` once carried an inlined copy of ``_push`` and
   every insert built its handle with ``object.__new__`` plus slot
   writes instead of a constructor.  ``InlinePushKernel`` and
   ``NewHandleKernel`` below restore each shortcut on top of the
   shipped kernel (which calls ``_push`` and constructs
   ``EventHandle(time, seq, kernel)``).  Each arm's time is divided by
   the shipped kernel's in the same round; a shortcut wins when that
   ratio's upper quartile over ``PATH_ROUNDS`` rotated rounds is below 1
   on both ``smp_decode`` and ``sharded_decode``.  An insert micro-bench
   and each decode's insert count bound what a shortcut can save.
"""

import gc
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from heapq import heappush
from typing import Any, Callable

import repro.runtime.simulated
import repro.sim.shard
from repro.metrics import Table
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly, frames_digest
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime, Sti7200SimRuntime
from repro.sim.errors import SchedulingError
from repro.sim.executor import Compute, ExecEngine, RoundRobinPolicy
from repro.sim.kernel import EventHandle, Kernel

from benchmarks.conftest import save_result

E2E_ROUNDS = 5
SMP_IMAGES = 192
STI_IMAGES = 192
SHARDED_IMAGES = 96
PATH_ROUNDS = 9
SLICES_PER_THREAD = 20_000
SLICE_REPEAT = 5


@contextmanager
def patched(owner, attr, value):
    saved = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


def heap_only():
    """The heap-only arm: no slice is ever provably uninterruptible."""
    return patched(Kernel, "advance_to", lambda self, time_ns: False)


# -- workloads -----------------------------------------------------------------


def _workloads():
    return {
        f"smp_decode ({SMP_IMAGES} images)": (
            SmpSimRuntime, False, generate_stream(SMP_IMAGES, 96, 96, quality=75, seed=1),
        ),
        f"sti7200_decode ({STI_IMAGES} images)": (
            Sti7200SimRuntime, True, generate_stream(STI_IMAGES, 96, 96, quality=75, seed=1),
        ),
        f"sharded_decode ({SHARDED_IMAGES} images, 4 shards)": (
            lambda: ShardedSmpSimRuntime(4),
            False,
            generate_stream(SHARDED_IMAGES, 96, 96, quality=75, seed=1),
        ),
    }


def decode_once(make_runtime, sti7200, stream, kernel_cls=Kernel):
    """One whole decode: (seconds, makespan, frame digest, runtime)."""
    saved = repro.sim.shard.Kernel, repro.runtime.simulated.Kernel
    repro.sim.shard.Kernel = repro.runtime.simulated.Kernel = kernel_cls
    try:
        if sti7200:
            app = build_sti7200_assembly(stream, keep_frames=True)
        else:
            app = build_smp_assembly(stream, keep_frames=True)
        rt = make_runtime()
        rt.deploy(app)
    finally:
        repro.sim.shard.Kernel, repro.runtime.simulated.Kernel = saved
    t0 = time.perf_counter()
    rt.start()
    rt.wait()
    rt.collect()
    rt.stop()
    elapsed = time.perf_counter() - t0
    frames = app.components["Fetch-Reorder" if sti7200 else "Reorder"].frames
    return elapsed, rt.makespan_ns, frames_digest(frames), rt


def _kernels(rt):
    shards = getattr(rt, "shards", None)
    if shards is not None:
        return [shard.kernel for shard in shards]
    return [rt.kernel]


def count_dispatch(make_runtime, sti7200, stream):
    """Untimed: kernel events and how slices ended, on the shipped path."""
    counts = Counter()
    advance = Kernel.advance_to
    fired = ExecEngine._slice_timer_fired
    in_timer = [False]

    def counting_advance(self, time_ns):
        ok = advance(self, time_ns)
        # A fired timer asks once; the slices its thread then runs in the
        # same callback are slice starts again.
        where = "timer" if in_timer[0] else "start"
        in_timer[0] = False
        counts[f"{where}_{'inline' if ok else 'heap'}"] += 1
        return ok

    def counting_fired(self, core):
        in_timer[0] = True
        try:
            fired(self, core)
        finally:
            in_timer[0] = False

    with patched(Kernel, "advance_to", counting_advance), patched(
        ExecEngine, "_slice_timer_fired", counting_fired
    ):
        *_, rt = decode_once(make_runtime, sti7200, stream)
    counts["events"] = sum(k.events_executed for k in _kernels(rt))
    with heap_only():
        *_, rt = decode_once(make_runtime, sti7200, stream)
    counts["events_heap_only"] = sum(k.events_executed for k in _kernels(rt))
    return counts


def inline_vs_heap():
    """Median seconds per (workload, arm) and the dispatch counts."""
    arms = {"inline": nullcontext, "heap-only": heap_only}
    names = list(arms)
    out = {}
    for workload, (make_runtime, sti7200, stream) in _workloads().items():
        times = {name: [] for name in names}
        models = set()
        for r in range(E2E_ROUNDS):
            for name in names[r % 2:] + names[: r % 2]:
                with arms[name]():
                    elapsed, makespan, digest, _ = decode_once(make_runtime, sti7200, stream)
                times[name].append(elapsed)
                models.add((makespan, digest))
        assert len(models) == 1, models
        out[workload] = (
            {name: statistics.median(times[name]) for name in names},
            count_dispatch(make_runtime, sti7200, stream),
        )
    return out


# -- slice micro-bench ---------------------------------------------------------


class _Cpu:
    def __init__(self, speed):
        self.speed = speed

    def cost_ns(self, opclass, units):
        return units * self.speed


def _slice_run(n_threads):
    """ns per compute slice: ``n_threads`` compute-bound threads on a
    4-core engine of mixed speed, each yielding ``SLICES_PER_THREAD``
    computes of varying length."""
    kernel = Kernel()
    engine = ExecEngine(kernel, [_Cpu(s) for s in (1, 2, 3, 5)], RoundRobinPolicy(1_000_000))

    def body(i):
        for j in range(SLICES_PER_THREAD):
            yield Compute("alu", 100 + (j * 37 + i * 11) % 97)

    for i in range(n_threads):
        engine.spawn(body(i), name=f"t{i}")
    engine.shutdown()
    t0 = time.perf_counter()
    kernel.run()
    return (time.perf_counter() - t0) / (n_threads * SLICES_PER_THREAD) * 1e9


def slice_micro():
    best = {}
    for n in (1, 2, 4):
        for name, arm in (("inline", nullcontext), ("heap-only", heap_only)):
            for _ in range(SLICE_REPEAT):
                with arm():
                    ns = _slice_run(n)
                best[(n, name)] = min(best.get((n, name), float("inf")), ns)
    return best


# -- the two inlined kernel paths ----------------------------------------------


class InlinePushKernel(Kernel):
    """``schedule`` with the body of ``_push`` inlined (the old shortcut)."""

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        time_ns = self._now + int(delay_ns)
        seq = self._seq
        handle = EventHandle(time_ns, seq, self)
        self._seq = seq + 1
        self._alive += 1
        heappush(self._heap, (time_ns, seq, handle, callback, args))
        return handle


_new = object.__new__


class NewHandleKernel(Kernel):
    """Every insert builds its handle with ``object.__new__`` and slot
    writes, skipping the ``__init__`` frame (the old shortcut)."""

    def _push(self, time_ns: int, callback: Callable[..., None], args: tuple) -> EventHandle:
        seq = self._seq
        handle = _new(EventHandle)
        handle.time = time_ns
        handle.seq = seq
        handle.cancelled = False
        handle._kernel = self
        self._seq = seq + 1
        self._alive += 1
        heappush(self._heap, (time_ns, seq, handle, callback, args))
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        seq = self._seq
        handle = _new(EventHandle)
        handle.time = now = self._now
        handle.seq = seq
        handle.cancelled = False
        handle._kernel = self
        self._seq = seq + 1
        self._alive += 1
        self._imm.append((now, seq, handle, callback, args))
        return handle


KERNELS = {"shipped": Kernel, "inlined _push": InlinePushKernel, "object.__new__": NewHandleKernel}


def _quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return q1, median, q3


def insert_micro(batches=400, batch=500):
    """ns per ``schedule`` + ``call_soon`` pair, per kernel: the fastest
    of ``batches`` batches, each into a fresh kernel, with the kernels
    interleaved batch by batch and the collector off, so that what is
    timed is the insert path at the host's best speed."""
    best = {name: float("inf") for name in KERNELS}
    noop = int
    gc.disable()
    try:
        for _ in range(batches):
            for name, kernel_cls in KERNELS.items():
                kernel = kernel_cls()
                schedule = kernel.schedule
                call_soon = kernel.call_soon
                t0 = time.perf_counter()
                for i in range(batch):
                    schedule(i, noop)
                    call_soon(noop)
                best[name] = min(best[name], (time.perf_counter() - t0) / batch * 1e9)
    finally:
        gc.enable()
    return best


def kernel_paths():
    """Per decode: the median over rounds of each kernel's time relative
    to the shipped kernel's in the same round (rounds rotate the order),
    and the kernel inserts one run makes; plus insert micro-costs."""
    names = list(KERNELS)
    out = {}
    for workload, (make_runtime, sti7200, stream) in _workloads().items():
        if sti7200:
            continue
        ratios = {name: [] for name in names}
        models = set()
        for r in range(PATH_ROUNDS):
            times = {}
            for name in names[r % len(names):] + names[: r % len(names)]:
                times[name], makespan, digest, rt = decode_once(
                    make_runtime, sti7200, stream, KERNELS[name]
                )
                models.add((makespan, digest))
            for name in names:
                ratios[name].append(times[name] / times["shipped"])
        assert len(models) == 1, models
        inserts = sum(k._seq for k in _kernels(rt))
        out[workload] = ({name: _quartiles(ratios[name]) for name in names}, inserts)
    return out, insert_micro()


def run_ablation():
    return inline_vs_heap(), slice_micro(), kernel_paths()


def test_cpu_dispatch_ablation(benchmark):
    e2e, micro, paths = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    e2e_table = Table(
        ["workload", "inline (s)", "heap-only (s)", "heap-only / inline"],
        title=f"Ablation A12a: end-to-end decode, median of {E2E_ROUNDS} rotated rounds",
    )
    share_table = Table(
        ["workload", "slices", "inline at start", "timers", "timer continued inline",
         "kernel events", "heap-only events"],
        title="Ablation A12b: how slices end (one untimed run each)",
    )
    for workload, (row, c) in e2e.items():
        e2e_table.add_row(
            [workload, round(row["inline"], 3), round(row["heap-only"], 3),
             round(row["heap-only"] / row["inline"], 2)]
        )
        slices = c["start_inline"] + c["start_heap"]
        timers = c["timer_inline"] + c["timer_heap"]
        share_table.add_row(
            [workload, slices,
             f"{c['start_inline']} ({c['start_inline'] / max(slices, 1):.0%})",
             timers,
             f"{c['timer_inline']} ({c['timer_inline'] / max(timers, 1):.0%})",
             c["events"], c["events_heap_only"]]
        )
    micro_table = Table(
        ["threads (4 cores)", "inline (ns/slice)", "heap-only (ns/slice)"],
        title=f"Ablation A12c: compute-slice micro-bench, best of {SLICE_REPEAT}",
    )
    for n in (1, 2, 4):
        micro_table.add_row([n, round(micro[(n, "inline")]), round(micro[(n, "heap-only")])])
    paths, insert_ns = paths
    paths_table = Table(
        ["decode", "kernel inserts"] + [f"{name} / shipped" for name in list(KERNELS)[1:]],
        title=f"Ablation A12d: kernel insert shortcuts, time / shipped kernel's in the "
        f"same round, median (quartiles) of {PATH_ROUNDS} rotated rounds",
    )
    for workload, (row, inserts) in paths.items():
        paths_table.add_row(
            [workload, inserts]
            + [f"{row[name][1]:.3f} ({row[name][0]:.3f}-{row[name][2]:.3f})"
               for name in list(KERNELS)[1:]]
        )
    insert_table = Table(
        ["kernel", "ns per schedule + call_soon"],
        title="Ablation A12e: insert micro-bench, fastest of 400 interleaved batches",
    )
    for name, ns in insert_ns.items():
        insert_table.add_row([name, round(ns)])
    # Half a pair's saving per insert, times the inserts of one run:
    # about what the shortcut can save end to end.
    verdicts = [
        f"{workload}: {name} can save about "
        f"{inserts * (insert_ns['shipped'] - insert_ns[name]) / 2 / 1e6:.2f} ms per run "
        f"({inserts} inserts)"
        for workload, (_, inserts) in paths.items()
        for name in list(KERNELS)[1:]
    ]
    # A shortcut wins when it is faster in at least three rounds of four
    # (upper quartile of its ratio below 1) on both decodes.
    for name in list(KERNELS)[1:]:
        wins = all(row[name][2] < 1.0 for row, _ in paths.values())
        verdicts.append(f"{name}: {'wins' if wins else 'does not win'} end to end on both decodes")
    save_result(
        "ablation_cpu_dispatch",
        "\n\n".join(
            [e2e_table.render(), share_table.render(), micro_table.render(),
             paths_table.render(), insert_table.render(), "\n".join(verdicts)]
        ),
    )
    for row, _ in e2e.values():
        assert row["inline"] > 0 and row["heap-only"] > 0
