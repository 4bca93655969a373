"""Ablation A11 -- the kernel's event queue and handle pooling.

Two questions about :mod:`repro.sim.kernel`:

1. **Calendar queue + timer wheel, or one heap.**  The kernel once ran a
   Brown calendar queue with a far-future spill heap and a 256-slot
   timer wheel for deadline timers; :class:`CalendarKernel` below keeps
   it, verbatim, as the reference.  The kernel now keeps one ``heapq``
   of ``(time, seq, handle)`` tuples beside the ``call_soon`` deque.
2. **Whether handle pooling earns its code.**  :class:`PooledKernel` is
   the heap kernel as it first landed: handles carry the callback and
   are recycled through a free list guarded by a refcount probe.  The
   shipped kernel allocates a handle per insert and keeps the callback
   in the heap entry instead.

All three kernels run four kernel micro-benches (``schedule_run``,
``channel_pingpong``, ``timer_churn``, ``cancel_compact``; best of
``REPEAT``) and two end-to-end decodes: the 96-image
``ShardedSmpSimRuntime(4)`` decode and the 192-image ``SmpSimRuntime``
decode, timed start to stop, arms rotated each round.  Each reference
kernel's decode time is divided by the heap kernel's in the same round;
the table gives the median and quartiles of that ratio over
``E2E_ROUNDS``, and a reference whose quartiles straddle 1 is
"unresolved".  Every kernel must produce the same makespan and frame
digest.  The executor's inline compute slices call
:meth:`Kernel.advance_to`, so both reference kernels keep its contract:
``PooledKernel`` checks its two queues as the heap kernel does, and
``CalendarKernel`` asks ``_select`` for its next entry, as ``peek``
does.  ``PooledKernel`` and ``_schedule_run`` are also the in-process
reference of the ``schedule_run`` gate in
``benchmarks/test_perf_gates.py``.
"""

import sys
import time
from bisect import insort
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

import repro.runtime.simulated
from repro.metrics import Table
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, frames_digest
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime
from repro.sim.errors import SchedulingError
from repro.sim.kernel import Kernel
from repro.sim.process import Timeout
from repro.sim.resources import Channel

from benchmarks.conftest import quartiles, save_result
from tests.sim.reference_process import Process

N_EVENTS = 100_000
N_MSGS = 25_000
N_CANCEL = 50_000
REPEAT = 5
E2E_ROUNDS = 9
SHARDED_IMAGES = 96
SMP_IMAGES = 192


# -- reference: the calendar queue + timer wheel kernel ------------------------

#: Compaction threshold: rebuild the calendar once at least this many
#: cancelled entries linger *and* they make up half the stored entries.
_COMPACT_MIN = 64

#: Upper bound on pooled CalendarHandle objects.
_POOL_MAX = 512

#: Calendar geometry bounds (bucket counts are powers of two).
_MIN_BUCKETS = 32
_MAX_BUCKETS = 1 << 16

#: Dispatch trims the consumed prefix of the due run past this length.
_READY_TRIM = 4096

#: Timer-wheel slots (fixed; the slot width adapts per anchoring).
_WHEEL_SLOTS = 256

_INF = float("inf")

#: Allocation fast path: ``object.__new__`` skips the ``__init__``
#: frame; the hot paths write every slot inline (same as a pool hit).
_new_handle_obj = object.__new__


class CalendarHandle:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_kernel", "_queued", "_in_cal")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        kernel: Optional["CalendarKernel"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._kernel = kernel
        self._queued = kernel is not None
        self._in_cal = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call repeatedly,
        including after the event has already fired (then a no-op)."""
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None and self._queued:
            kernel._alive -= 1
            if self._in_cal:
                kernel._n_cancelled += 1
                if (
                    kernel._n_cancelled >= _COMPACT_MIN
                    and kernel._n_cancelled * 2 >= kernel._cal_count
                ):
                    kernel._purge()

    def __lt__(self, other: "CalendarHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<CalendarHandle t={self.time} seq={self.seq} {state}>"


class CalendarKernel:
    """Discrete-event simulation kernel with integer-nanosecond time.

    Usage::

        k = CalendarKernel()
        k.schedule(1000, print, "fires at t=1000ns")
        k.run()
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._imm: deque[CalendarHandle] = deque()  # same-instant FIFO fast path
        self.events_executed: int = 0
        self._alive: int = 0  # scheduled, not cancelled, not yet fired
        self._n_cancelled: int = 0  # cancelled entries still stored in the calendar
        self._pool: list[CalendarHandle] = []
        # -- calendar queue ----------------------------------------------
        self._n_buckets: int = _MIN_BUCKETS
        self._mask: int = _MIN_BUCKETS - 1
        self._width: int = 1024  # ns; re-derived on rebuild
        self._buckets: list[list[tuple]] = [[] for _ in range(_MIN_BUCKETS)]
        self._bucket_count: int = 0  # entries stored in the bucket array
        self._cal_count: int = 0  # entries in buckets + spill + due run
        self._bucket_top: int = self._width  # exclusive bound of the due window
        self._cur: int = 0  # bucket whose window ends at _bucket_top
        self._year: int = _MIN_BUCKETS * self._width
        self._far: list[tuple] = []  # spill heap: > one year ahead of the sweep
        self._far_limit: int = self._bucket_top + self._year
        self._ready: list[tuple] = []  # sorted due run, consumed by index
        self._ready_pos: int = 0
        self._ready_cap: int = 512  # rebuild pressure threshold for the due run
        self._grow_cap: int = _MIN_BUCKETS << 1  # bucket-population rebuild trigger
        self._far_cap: int = _MIN_BUCKETS << 1  # spill-size rebuild trigger
        # -- timer wheel -------------------------------------------------
        self._wheel: list[list[tuple]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._wheel_entries: int = 0  # stored wheel entries (live + cancelled)
        self._wheel_base: int = 0
        self._wheel_tw: int = 1
        self._wheel_pos: int = _WHEEL_SLOTS  # exhausted; re-anchor on next insert
        self._wheel_next = _INF  # lower bound on the next undrained slot start
        #: Latest instant ``advance_to`` may reach: the running
        #: ``run(until=...)`` bound, or -1 (refuse) outside ``run`` and
        #: under ``max_events``.
        self._horizon: float = -1

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> CalendarHandle:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now.

        This is the hottest entry point in the kernel; the insert body
        of :meth:`_schedule_abs` is inlined here to skip a call frame.
        Keep the two in sync."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        time_ns = self._now + int(delay_ns)
        pool = self._pool
        seq = self._seq
        if pool:
            handle = pool.pop()
        else:
            handle = _new_handle_obj(CalendarHandle)
            handle._kernel = self
        handle.time = time_ns
        handle.seq = seq
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._queued = True
        handle._in_cal = True
        self._seq = seq + 1
        self._alive += 1
        self._cal_count += 1
        entry = (time_ns, seq, handle)
        if time_ns < self._bucket_top:
            ready = self._ready
            insort(ready, entry, self._ready_pos)
            if len(ready) - self._ready_pos > self._ready_cap:
                if ready[-1][0] > ready[self._ready_pos][0]:
                    self._rebuild()
                else:
                    self._ready_cap = (len(ready) - self._ready_pos) << 1
        elif time_ns < self._far_limit:
            self._buckets[(time_ns // self._width) & self._mask].append(entry)
            self._bucket_count += 1
            if self._bucket_count > self._grow_cap:
                self._rebuild()
        else:
            far = self._far
            heappush(far, entry)
            if len(far) > self._far_cap:
                self._rebuild()
        return handle

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any) -> CalendarHandle:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SchedulingError(f"cannot schedule in the past: {time_ns} < {self._now}")
        return self._schedule_abs(int(time_ns), callback, args)

    def _schedule_abs(self, time_ns: int, callback: Callable[..., None], args: tuple) -> CalendarHandle:
        pool = self._pool
        seq = self._seq
        if pool:
            handle = pool.pop()
        else:
            handle = _new_handle_obj(CalendarHandle)
            handle._kernel = self
        handle.time = time_ns
        handle.seq = seq
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._queued = True
        handle._in_cal = True
        self._seq = seq + 1
        self._alive += 1
        self._cal_count += 1
        entry = (time_ns, seq, handle)
        if time_ns < self._bucket_top:
            # Due inside the current sweep window: insert into the sorted
            # run directly (at or after the consumption point -- the entry
            # is never earlier than anything already dispatched).
            ready = self._ready
            insort(ready, entry, self._ready_pos)
            if len(ready) - self._ready_pos > self._ready_cap:
                if ready[-1][0] > ready[self._ready_pos][0]:
                    self._rebuild()  # re-derive a tighter width
                else:
                    # One dense timestamp: inserts append in O(1); just
                    # back the threshold off geometrically.
                    self._ready_cap = (len(ready) - self._ready_pos) << 1
        elif time_ns < self._far_limit:
            self._buckets[(time_ns // self._width) & self._mask].append(entry)
            self._bucket_count += 1
            if self._bucket_count > self._grow_cap:
                self._rebuild()
        else:
            far = self._far
            heappush(far, entry)
            if len(far) > self._far_cap:
                self._rebuild()  # spill pressure: re-anchor the year
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> CalendarHandle:
        """Schedule ``callback(*args)`` at the current instant, bypassing
        the calendar.  Equivalent to ``schedule(0, ...)`` -- including
        FIFO ordering relative to it -- but O(1) with no bucket math;
        used by the event/channel wakeup fast path."""
        pool = self._pool
        if pool:
            handle = pool.pop()
        else:
            handle = _new_handle_obj(CalendarHandle)
            handle._kernel = self
        handle.time = self._now
        handle.seq = self._seq
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._queued = True
        handle._in_cal = False
        self._seq += 1
        self._alive += 1
        self._imm.append(handle)
        return handle

    def schedule_timer(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> CalendarHandle:
        """Schedule a **deadline timer**: semantics identical to
        :meth:`schedule` (same ``(time, seq)`` ordering domain), tuned
        for timers that are usually cancelled before firing.

        The handle parks in a coarse timer wheel and is promoted into the
        calendar only when its slot comes due, so the common
        schedule-then-cancel churn of receive deadlines never creates a
        calendar tombstone and never triggers compaction."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        delay_ns = int(delay_ns)
        time_ns = self._now + delay_ns
        if not self._wheel_entries:
            # Empty wheel: re-anchor it around this deadline so the slot
            # width matches the workload's timeout scale (horizon = 2x).
            self._wheel_tw = (delay_ns >> 7) or 1
            self._wheel_base = self._now
            self._wheel_pos = 0
            self._wheel_next = _INF
        idx = (time_ns - self._wheel_base) // self._wheel_tw
        if idx < self._wheel_pos or idx >= _WHEEL_SLOTS:
            # Behind the drained cursor or beyond the horizon: the wheel
            # cannot hold it; fall back to an ordinary calendar insert.
            return self._schedule_abs(time_ns, callback, args)
        handle = self._new_handle(time_ns, callback, args)
        self._wheel[idx].append((time_ns, handle.seq, handle))
        self._wheel_entries += 1
        slot_start = self._wheel_base + idx * self._wheel_tw
        if slot_start < self._wheel_next:
            self._wheel_next = slot_start
        return handle

    def _new_handle(self, time_ns: int, callback: Callable[..., None], args: tuple) -> CalendarHandle:
        pool = self._pool
        if pool:
            handle = pool.pop()
        else:
            handle = _new_handle_obj(CalendarHandle)
            handle._kernel = self
        handle.time = time_ns
        handle.seq = self._seq
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._queued = True
        handle._in_cal = False
        self._seq += 1
        self._alive += 1
        return handle

    def _discard(self, handle: CalendarHandle) -> None:
        """Retire a dequeued handle: break refs and pool it when no
        external reference can still reach it (refcount probe)."""
        handle._queued = False
        handle.callback = None  # type: ignore[assignment]
        handle.args = ()
        # Refs here: the caller's binding(s) + getrefcount's argument
        # (+ possibly the consumed entry tuple, which is never re-read).
        # <= 3 means nobody outside the kernel holds the handle.
        if len(self._pool) < _POOL_MAX and sys.getrefcount(handle) <= 3:
            self._pool.append(handle)

    # -- calendar machinery ---------------------------------------------------

    def _insert_entry(self, entry: tuple) -> None:
        """Re-file one ``(time, seq, handle)`` entry (timer promotion)."""
        t = entry[0]
        if t < self._bucket_top:
            insort(self._ready, entry, self._ready_pos)
        elif t < self._far_limit:
            self._buckets[(t // self._width) & self._mask].append(entry)
            self._bucket_count += 1
        else:
            heappush(self._far, entry)
        self._cal_count += 1

    def _purge(self) -> None:
        """Tombstone compaction without touching the geometry: filter
        cancelled entries out of the due run, buckets and spill in
        place.  Unlike the old heap (where dead entries cost an
        ``O(log n)`` sift each), a calendar tombstone only costs its
        sweep visit, so compaction exists for memory hygiene and can be
        this cheap: each purge visits ~2x the entries it drops."""
        discard = self._discard
        ready = self._ready
        live_ready: list[tuple] = []
        append = live_ready.append
        for i in range(self._ready_pos, len(ready)):
            e = ready[i]
            if e[2].cancelled:
                discard(e[2])
            else:
                append(e)
        self._ready = live_ready
        self._ready_pos = 0
        # Re-derive the due-run pressure threshold from the compacted
        # population: a purge that dropped most of a bloated run must not
        # leave the old (doubled-up) threshold behind, or the next burst
        # of inserts would defer the rebuild it needs.
        self._ready_cap = max(512, len(live_ready) << 1)
        buckets = self._buckets
        bucket_count = 0
        for i, b in enumerate(buckets):
            if not b:
                continue
            keep = [e for e in b if not e[2].cancelled]
            if len(keep) != len(b):
                for e in b:
                    if e[2].cancelled:
                        discard(e[2])
                buckets[i] = keep
            bucket_count += len(keep)
        self._bucket_count = bucket_count
        far = self._far
        if far:
            keep = [e for e in far if not e[2].cancelled]
            if len(keep) != len(far):
                for e in far:
                    if e[2].cancelled:
                        discard(e[2])
                heapify(keep)
                self._far = far = keep
        self._cal_count = len(live_ready) + bucket_count + len(far)
        self._n_cancelled = 0

    def _rebuild(self) -> None:
        """Collect live entries, drop tombstones, re-derive the bucket
        count and width from the live distribution, redistribute.

        Serves three roles: adaptive resize (population outgrew or
        undershot the bucket array), tombstone compaction, and spill
        re-anchoring (the year no longer covers the live span)."""
        if self._n_cancelled:
            entries = []
            append = entries.append
            discard = self._discard
            ready = self._ready
            for i in range(self._ready_pos, len(ready)):
                e = ready[i]
                if e[2].cancelled:
                    discard(e[2])
                else:
                    append(e)
            for b in self._buckets:
                for e in b:
                    if e[2].cancelled:
                        discard(e[2])
                    else:
                        append(e)
            for e in self._far:
                if e[2].cancelled:
                    discard(e[2])
                else:
                    append(e)
        else:
            entries = self._ready[self._ready_pos:]
            extend = entries.extend
            for b in self._buckets:
                if b:
                    extend(b)
            extend(self._far)
        count = len(entries)
        if count > 1:
            # Bucket width ~ 3x the median inter-event gap of a sample
            # (the median shrugs off one far-future outlier; ties at a
            # single hot timestamp fall through to width 1).
            step = count // 64 or 1
            times = sorted(entries[i][0] for i in range(0, count, step))
            gaps = sorted(times[i + 1] - times[i] for i in range(len(times) - 1))
            width = 3 * gaps[len(gaps) // 2] or 1
            t0 = times[0]
            span_buckets = (times[-1] - t0) // width + 2
        else:
            width = self._width
            t0 = entries[0][0] if entries else self._now
            span_buckets = 1
        # Size one doubling ahead of the live population so a growing
        # queue rebuilds O(log n) times total -- but no wider than the
        # sampled span needs: tie-heavy workloads fit in a few buckets,
        # and allocating count-many empty lists is the dominant rebuild
        # cost.  (The sample min standing in for the true min is safe:
        # a too-high epoch only routes more entries to the due run.)
        n_new = _MIN_BUCKETS
        target = count << 1
        if span_buckets < target:
            target = span_buckets
        while n_new < target and n_new < _MAX_BUCKETS:
            n_new <<= 1
        epoch = t0 // width
        mask = n_new - 1
        top = (epoch + 1) * width
        year = n_new * width
        far_limit = top + year
        buckets: list[list[tuple]] = [[] for _ in range(n_new)]
        far: list[tuple] = []
        due: list[tuple] = []
        bucket_count = 0
        for e in entries:
            t = e[0]
            if t < top:
                due.append(e)
            elif t < far_limit:
                buckets[(t // width) & mask].append(e)
                bucket_count += 1
            else:
                far.append(e)
        due.sort()
        heapify(far)
        self._n_buckets = n_new
        self._mask = mask
        self._width = width
        self._year = year
        self._cur = epoch & mask
        self._bucket_top = top
        self._far_limit = far_limit
        self._buckets = buckets
        self._bucket_count = bucket_count
        self._far = far
        self._ready = due
        self._ready_pos = 0
        self._ready_cap = max(512, len(due) << 1)
        # Pressure triggers back off geometrically past the current
        # population: when the geometry can no longer grow (span-capped
        # or at _MAX_BUCKETS), rebuilds stay O(log n) instead of
        # thrashing once per insert.
        self._grow_cap = max(n_new << 1, bucket_count << 1)
        self._far_cap = max(n_new << 1, len(far) << 1)
        self._cal_count = count
        self._n_cancelled = 0

    def _advance(self) -> bool:
        """Sweep forward until a bucket yields due entries into the run;
        returns False when the calendar is empty."""
        self._ready = []
        self._ready_pos = 0
        live = self._cal_count - self._n_cancelled
        if live * 4 < self._n_buckets and self._n_buckets > _MIN_BUCKETS:
            self._rebuild()
            if self._ready:
                return True
        if not self._bucket_count:
            if not self._far:
                return False
            return self._jump()
        buckets = self._buckets
        far = self._far
        mask = self._mask
        w = self._width
        cur = self._cur
        top = self._bucket_top
        fl = self._far_limit
        for _ in range(self._n_buckets):
            cur = (cur + 1) & mask
            top += w
            fl += w
            while far and far[0][0] < fl:
                e = heappop(far)
                buckets[(e[0] // w) & mask].append(e)
                self._bucket_count += 1
            b = buckets[cur]
            if b:
                due = [e for e in b if e[0] < top]
                if due:
                    if len(due) == len(b):
                        buckets[cur] = []
                    else:
                        buckets[cur] = [e for e in b if e[0] >= top]
                    self._bucket_count -= len(due)
                    due.sort()
                    self._ready = due
                    self._ready_cap = max(512, len(due) << 1)
                    self._cur = cur
                    self._bucket_top = top
                    self._far_limit = fl
                    return True
        self._cur = cur
        self._bucket_top = top
        self._far_limit = fl
        return self._jump()

    def _jump(self) -> bool:
        """A whole year swept empty: reposition the sweep at the global
        minimum directly instead of walking empty years."""
        t_min = None
        if self._bucket_count:
            for b in self._buckets:
                for e in b:
                    if t_min is None or e[0] < t_min:
                        t_min = e[0]
        far = self._far
        if far and (t_min is None or far[0][0] < t_min):
            t_min = far[0][0]
        if t_min is None:
            return False
        w = self._width
        mask = self._mask
        epoch = t_min // w
        cur = epoch & mask
        top = (epoch + 1) * w
        fl = top + self._year
        buckets = self._buckets
        while far and far[0][0] < fl:
            e = heappop(far)
            buckets[(e[0] // w) & mask].append(e)
            self._bucket_count += 1
        b = buckets[cur]
        due = [e for e in b if e[0] < top]
        if len(due) == len(b):
            buckets[cur] = []
        else:
            buckets[cur] = [e for e in b if e[0] >= top]
        self._bucket_count -= len(due)
        due.sort()
        self._ready = due
        self._ready_pos = 0
        self._ready_cap = max(512, len(due) << 1)
        self._cur = cur
        self._bucket_top = top
        self._far_limit = fl
        return True

    def _promote_timers(self, t) -> None:
        """Drain every wheel slot whose window starts at or before ``t``
        into the calendar (``t=None`` drains the whole wheel).  Cancelled
        timers are dropped here for free."""
        wheel = self._wheel
        tw = self._wheel_tw
        base = self._wheel_base
        pos = self._wheel_pos
        while pos < _WHEEL_SLOTS and self._wheel_entries:
            if t is not None and base + pos * tw > t:
                break
            slot = wheel[pos]
            if slot:
                self._wheel_entries -= len(slot)
                for e in slot:
                    h = e[2]
                    if h.cancelled:
                        self._discard(h)
                    else:
                        h._in_cal = True
                        self._insert_entry(e)
                wheel[pos] = []
            pos += 1
        self._wheel_pos = pos
        if pos < _WHEEL_SLOTS and self._wheel_entries:
            self._wheel_next = base + pos * tw
        else:
            self._wheel_next = _INF

    def _select(self):
        """Prune cancelled heads, promote due timers, and return
        ``(time, src)`` for the next event: ``src`` is 0 for the
        immediate queue, 1 for the calendar run, None when idle."""
        imm = self._imm
        while True:
            while imm and imm[0].cancelled:
                self._discard(imm.popleft())
            # -- calendar head (prune tombstones, refill the due run) ----
            # Guarded by the O(1) entry count: an imm-only workload (the
            # channel wakeup pattern) never touches the sweep machinery.
            e = None
            if self._cal_count:
                ready = self._ready
                pos = self._ready_pos
                while True:
                    if pos < len(ready):
                        e = ready[pos]
                        h = e[2]
                        if h.cancelled:
                            pos += 1
                            self._n_cancelled -= 1
                            self._cal_count -= 1
                            self._discard(h)
                            continue
                        if pos >= _READY_TRIM:
                            del ready[:pos]
                            pos = 0
                        self._ready_pos = pos
                        break
                    self._ready_pos = pos
                    if not self._advance():
                        e = None
                        break
                    ready = self._ready
                    pos = self._ready_pos
            # -- merge with the immediate queue by (time, seq) -----------
            if imm:
                h = imm[0]
                if e is not None and (e[0] < h.time or (e[0] == h.time and e[1] < h.seq)):
                    t, src = e[0], 1
                else:
                    t, src = h.time, 0
            elif e is not None:
                t, src = e[0], 1
            else:
                if self._wheel_entries:
                    self._promote_timers(None)
                    continue
                return None, None
            if self._wheel_entries and self._wheel_next <= t:
                self._promote_timers(t)
                continue
            return t, src

    # -- dispatch -------------------------------------------------------------

    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled callbacks.  O(1)."""
        return self._alive

    def peek(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the queue is empty."""
        return self._select()[0]

    def advance_to(self, time_ns: int) -> bool:
        """:meth:`Kernel.advance_to`'s contract: move the clock to
        ``time_ns`` and return True when the next entry :meth:`run` would
        pop is later than ``time_ns`` and ``time_ns`` is within the
        running ``run(until=...)``; otherwise change nothing and return
        False.  The next entry is :meth:`_select`'s answer, the same one
        :meth:`peek` gives from inside a callback."""
        if time_ns > self._horizon:
            return False
        t, _ = self._select()
        if t is not None and t <= time_ns:
            return False
        self._now = time_ns
        return True

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle."""
        t, src = self._select()
        if src is None:
            return False
        if src:
            pos = self._ready_pos
            handle = self._ready[pos][2]
            self._ready_pos = pos + 1
            self._cal_count -= 1
        else:
            handle = self._imm.popleft()
        self._now = t
        self.events_executed += 1
        self._alive -= 1
        handle._queued = False
        callback = handle.callback
        args = handle.args
        callback(*args)
        self._discard(handle)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        have fired.  Returns the final simulated time."""
        executed = 0
        imm = self._imm
        select = self._select
        discard = self._discard
        if max_events is None:
            self._horizon = _INF if until is None else until
        else:
            self._horizon = -1
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                t, src = select()
                if src is None:
                    break
                if until is not None and t > until:
                    self._now = until
                    break
                if src:
                    pos = self._ready_pos
                    handle = self._ready[pos][2]
                    self._ready_pos = pos + 1
                    self._cal_count -= 1
                else:
                    handle = imm.popleft()
                self._now = t
                self.events_executed += 1
                self._alive -= 1
                handle._queued = False
                callback = handle.callback
                args = handle.args
                callback(*args)
                discard(handle)
                executed += 1
        finally:
            self._horizon = -1
        return self._now


# -- reference: the heap kernel with handle pooling ----------------------------

class PooledHandle:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_kernel", "_queued")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        kernel: Optional["PooledKernel"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._kernel = kernel
        self._queued = kernel is not None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call repeatedly,
        including after the event has already fired (then a no-op)."""
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None and self._queued:
            kernel._alive -= 1
            n = kernel._n_cancelled + 1
            kernel._n_cancelled = n
            if n >= _COMPACT_MIN and n * 2 >= len(kernel._heap) + len(kernel._imm):
                kernel._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<PooledHandle t={self.time} seq={self.seq} {state}>"


class PooledKernel:
    """Discrete-event simulation kernel with integer-nanosecond time.

    Usage::

        k = PooledKernel()
        k.schedule(1000, print, "fires at t=1000ns")
        k.run()
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: list[tuple] = []  # (time, seq, handle)
        self._imm: deque[tuple] = deque()  # same-instant FIFO, same shape
        self.events_executed: int = 0
        self._alive: int = 0  # scheduled, not cancelled, not yet fired
        self._n_cancelled: int = 0  # cancelled entries still stored
        self._pool: list[PooledHandle] = []
        #: Latest instant ``advance_to`` may reach (see CalendarKernel).
        self._horizon: float = -1

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> PooledHandle:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now.

        This is the hottest entry point in the kernel; the body of
        :meth:`_push` is inlined here to skip a call frame.  Keep the
        two in sync."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        time_ns = self._now + int(delay_ns)
        pool = self._pool
        seq = self._seq
        if pool:
            handle = pool.pop()
        else:
            handle = _new_handle_obj(PooledHandle)
            handle._kernel = self
        handle.time = time_ns
        handle.seq = seq
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._queued = True
        self._seq = seq + 1
        self._alive += 1
        heappush(self._heap, (time_ns, seq, handle))
        return handle

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any) -> PooledHandle:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SchedulingError(f"cannot schedule in the past: {time_ns} < {self._now}")
        return self._push(int(time_ns), callback, args)

    def schedule_timer(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> PooledHandle:
        """Schedule a **deadline timer**: semantics identical to
        :meth:`schedule`.  Kept as its own entry point so callers name
        timers that are usually cancelled before firing (receive
        deadlines, watchdogs) and instrumentation can count them."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        return self._push(self._now + int(delay_ns), callback, args)

    def _push(self, time_ns: int, callback: Callable[..., None], args: tuple) -> PooledHandle:
        pool = self._pool
        seq = self._seq
        if pool:
            handle = pool.pop()
        else:
            handle = _new_handle_obj(PooledHandle)
            handle._kernel = self
        handle.time = time_ns
        handle.seq = seq
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._queued = True
        self._seq = seq + 1
        self._alive += 1
        heappush(self._heap, (time_ns, seq, handle))
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> PooledHandle:
        """Schedule ``callback(*args)`` at the current instant, bypassing
        the heap.  Equivalent to ``schedule(0, ...)`` -- including FIFO
        ordering relative to it -- but O(1); used by the event/channel
        wakeup fast path."""
        pool = self._pool
        seq = self._seq
        if pool:
            handle = pool.pop()
        else:
            handle = _new_handle_obj(PooledHandle)
            handle._kernel = self
        handle.time = now = self._now
        handle.seq = seq
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._queued = True
        self._seq = seq + 1
        self._alive += 1
        self._imm.append((now, seq, handle))
        return handle

    def _discard(self, handle: PooledHandle) -> None:
        """Retire a dequeued handle: break refs and pool it when no
        external reference can still reach it (refcount probe)."""
        handle._queued = False
        handle.callback = None  # type: ignore[assignment]
        handle.args = ()
        # Refs here: the caller's binding(s) + getrefcount's argument
        # (+ possibly the consumed entry tuple, which is never re-read).
        # <= 3 means nobody outside the kernel holds the handle.
        if len(self._pool) < _POOL_MAX and sys.getrefcount(handle) <= 3:
            self._pool.append(handle)

    def _compact(self) -> None:
        """Drop every cancelled entry from both queues, in place (the
        dispatch loop holds references to the queue objects)."""
        heap = self._heap
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapify(heap)
        imm = self._imm
        live = [e for e in imm if not e[2].cancelled]
        imm.clear()
        imm.extend(live)
        self._n_cancelled = 0

    # -- dispatch -------------------------------------------------------------

    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled callbacks.  O(1)."""
        return self._alive

    def peek(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the queue is empty."""
        imm = self._imm
        heap = self._heap
        while imm and imm[0][2].cancelled:
            self._n_cancelled -= 1
            self._discard(imm.popleft()[2])
        while heap and heap[0][2].cancelled:
            self._n_cancelled -= 1
            self._discard(heappop(heap)[2])
        if imm:
            if heap and heap[0] < imm[0]:
                return heap[0][0]
            return imm[0][0]
        return heap[0][0] if heap else None

    def advance_to(self, time_ns: int) -> bool:
        """:meth:`Kernel.advance_to`, on the same two queues: refuse on a
        queued same-instant wakeup, a heap entry at or before ``time_ns``
        (a cancelled one still counts) or a target beyond the horizon."""
        if time_ns > self._horizon or self._imm:
            return False
        heap = self._heap
        if heap and heap[0][0] <= time_ns:
            return False
        self._now = time_ns
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        have fired.  Returns the final simulated time.

        Stopping at ``until`` leaves the clock at ``until``.
        """
        heap = self._heap
        imm = self._imm
        discard = self._discard
        executed = 0
        if max_events is None:
            self._horizon = _INF if until is None else until
        else:
            self._horizon = -1
        try:
            while max_events is None or executed < max_events:
                if imm:
                    entry = imm[0]
                    from_heap = heap and heap[0] < entry
                    if from_heap:
                        entry = heap[0]
                elif heap:
                    entry = heap[0]
                    from_heap = True
                else:
                    break
                handle = entry[2]
                if handle.cancelled:
                    if from_heap:
                        heappop(heap)
                    else:
                        imm.popleft()
                    self._n_cancelled -= 1
                    discard(handle)
                    continue
                t = entry[0]
                if until is not None and t > until:
                    self._now = until
                    break
                if from_heap:
                    heappop(heap)
                else:
                    imm.popleft()
                del entry
                self._now = t
                self.events_executed += 1
                self._alive -= 1
                handle._queued = False
                handle.callback(*handle.args)
                discard(handle)
                executed += 1
        finally:
            self._horizon = -1
        return self._now


KERNELS = {"calendar+wheel": CalendarKernel, "heap + pool": PooledKernel, "heap": Kernel}
REFERENCES = ("calendar+wheel", "heap + pool")


# -- micro-benches --------------------------------------------------------------


def _schedule_run(kernel_cls):
    kernel = kernel_cls()
    noop = lambda: None  # noqa: E731
    for i in range(N_EVENTS):
        kernel.schedule(i % 97, noop)
    kernel.run()


def _channel_pingpong(kernel_cls):
    kernel = kernel_cls()
    chan = Channel(kernel, name="bench")

    def producer():
        for i in range(N_MSGS):
            chan.put(i)
            yield Timeout(0)

    def consumer():
        for _ in range(N_MSGS):
            yield from chan.get()

    Process(kernel, consumer(), name="consumer")
    Process(kernel, producer(), name="producer")
    kernel.run()


def _timer_churn(kernel_cls):
    kernel = kernel_cls()
    noop = lambda: None  # noqa: E731
    remaining = [N_CANCEL]
    pending = [None]

    def deliver():
        if pending[0] is not None:
            pending[0].cancel()
            pending[0] = None
        if remaining[0] > 0:
            remaining[0] -= 1
            pending[0] = kernel.schedule_timer(5_000, noop)
            kernel.schedule(7, deliver)

    deliver()
    kernel.run()


def _cancel_compact(kernel_cls):
    kernel = kernel_cls()
    noop = lambda: None  # noqa: E731
    handles = [kernel.schedule(i + 1, noop) for i in range(N_CANCEL)]
    for handle in handles[100:]:
        handle.cancel()
    kernel.run()


#: bench -> (body, operations per run)
MICRO = {
    "schedule_run": (_schedule_run, N_EVENTS),
    "channel_pingpong": (_channel_pingpong, N_MSGS),
    "timer_churn": (_timer_churn, N_CANCEL),
    "cancel_compact": (_cancel_compact, N_CANCEL),
}


def micro():
    """Best-of-``REPEAT`` ns per op for every (kernel, bench).  Each
    repetition runs every kernel back to back, so host drift lands on
    all of them alike."""
    best = {name: {bench: float("inf") for bench in MICRO} for name in KERNELS}
    for _ in range(REPEAT):
        for bench, (body, n_ops) in MICRO.items():
            for name, kernel_cls in KERNELS.items():
                t0 = time.perf_counter()
                body(kernel_cls)
                ns = (time.perf_counter() - t0) / n_ops * 1e9
                best[name][bench] = min(best[name][bench], ns)
    return best


# -- end to end ----------------------------------------------------------------


def decode_once(kernel_cls, make_runtime, stream):
    """One whole decode on ``kernel_cls``: (seconds, makespan, digest)."""
    saved = repro.runtime.simulated.Kernel
    repro.runtime.simulated.Kernel = kernel_cls
    try:
        app = build_smp_assembly(stream, keep_frames=True)
        rt = make_runtime()
        rt.deploy(app)
    finally:
        repro.runtime.simulated.Kernel = saved
    t0 = time.perf_counter()
    rt.start()
    rt.wait()
    rt.collect()
    rt.stop()
    elapsed = time.perf_counter() - t0
    return elapsed, rt.makespan_ns, frames_digest(app.components["Reorder"].frames)


def end_to_end():
    """Per decode: ``(q1, median, q3)`` of each reference kernel's time
    over the heap kernel's in the same round; the model must not move."""
    decodes = {
        f"sharded decode ({SHARDED_IMAGES} images, 4 shards)": (
            lambda: ShardedSmpSimRuntime(4),
            generate_stream(SHARDED_IMAGES, 96, 96, quality=75, seed=1),
        ),
        f"SMP decode ({SMP_IMAGES} images)": (
            SmpSimRuntime,
            generate_stream(SMP_IMAGES, 96, 96, quality=75, seed=1),
        ),
    }
    names = list(KERNELS)
    out = {}
    for decode, (make_runtime, stream) in decodes.items():
        ratios = {name: [] for name in REFERENCES}
        models = {}
        for r in range(E2E_ROUNDS):
            times = {}
            for name in names[r % len(names):] + names[:r % len(names)]:
                times[name], makespan, digest = decode_once(KERNELS[name], make_runtime, stream)
                models[name] = (makespan, digest)
            for name in REFERENCES:
                ratios[name].append(times[name] / times["heap"])
        assert len(set(models.values())) == 1, models
        out[decode] = {name: quartiles(ratios[name]) for name in REFERENCES}
    return out


def verdict(q1, q3):
    """Faster or slower than the heap in three rounds of four, or neither."""
    if q3 < 1.0:
        return "faster"
    if q1 > 1.0:
        return "slower"
    return "unresolved"


def run_ablation():
    return micro(), end_to_end()


def test_kernel_queue_ablation(benchmark):
    micros, e2e = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    names = list(KERNELS)

    micro_table = Table(
        ["bench"] + [f"{name} (ns)" for name in names],
        title=f"Ablation A11a: kernel micro-benches, ns per op, best of {REPEAT}",
    )
    for bench in micros[names[0]]:
        micro_table.add_row([bench] + [round(micros[name][bench]) for name in names])
    e2e_table = Table(
        ["decode"] + [f"{name} / heap" for name in REFERENCES],
        title=f"Ablation A11b: end-to-end decode, time / heap kernel's in the same round, "
        f"median (quartiles) of {E2E_ROUNDS} rotated rounds",
    )
    for decode, row in e2e.items():
        e2e_table.add_row(
            [decode] + [f"{row[name][1]:.3f} ({row[name][0]:.3f}-{row[name][2]:.3f})"
                        for name in REFERENCES]
        )
    verdicts = [
        f"{decode}: {name} against the heap: {verdict(row[name][0], row[name][2])}"
        for decode, row in e2e.items()
        for name in REFERENCES
    ]
    save_result(
        "ablation_kernel_queue",
        "\n\n".join([micro_table.render(), e2e_table.render(), "\n".join(verdicts)]),
    )


def _advance_probes(kernel_cls):
    """``(result, now)`` of ``advance_to`` in each case its contract names."""
    out = []

    def probe(kernel, at, target, **run):
        def fire():
            out.append((kernel.advance_to(target), kernel.now))

        kernel.schedule_at(at, fire)
        kernel.run(**run)

    k = kernel_cls()
    probe(k, 10, 40)  # nothing else due
    k = kernel_cls()
    k.schedule_at(30, lambda: None)
    probe(k, 10, 30)  # an entry at exactly the target fires first
    k = kernel_cls()
    k.schedule_at(30, lambda: None)
    probe(k, 10, 29)  # just before the next entry
    k = kernel_cls()
    k.schedule_timer(25, lambda: None)
    probe(k, 10, 30)  # a deadline timer counts like any entry
    k = kernel_cls()
    probe(k, 10, 40, until=39)  # beyond the horizon
    k = kernel_cls()
    probe(k, 10, 40, max_events=5)  # the skip would change the count
    k = kernel_cls()

    def soon():
        k.call_soon(lambda: None)
        out.append((k.advance_to(20), k.now))

    k.schedule_at(10, soon)
    k.run()
    k = kernel_cls()
    out.append((k.advance_to(5), k.now))  # outside run
    return out


def test_reference_kernels_keep_the_advance_to_contract():
    expected = [
        (True, 40), (False, 10), (True, 29), (False, 10),
        (False, 10), (False, 10), (False, 10), (False, 0),
    ]
    for name, kernel_cls in KERNELS.items():
        assert _advance_probes(kernel_cls) == expected, name
