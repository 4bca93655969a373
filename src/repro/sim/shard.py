"""Sharded conservative parallel discrete-event simulation.

One logical machine is partitioned into N *shards*, each owning a
private :class:`~repro.sim.kernel.Kernel` (clock + event heap) and a
disjoint subset of the component graph.  Shards exchange messages only
through the envelope layer of :mod:`repro.sim.mailbox` and advance under
**conservative synchronization** (Chandy/Misra/Bryant family): the
hardware link latency of every channel is a guaranteed minimum delivery
delay, so shard *i* may freely execute everything strictly below

    ``bound_i = min over in-neighbor shards j of (eot_j + lookahead(j, i))``

where ``eot_j`` is shard *j*'s earliest possible next activity and
``lookahead(j, i)`` is the smallest link latency of any channel from *j*
to *i*.  No null messages circulate; a coordinator recomputes the bounds
each sweep (a time-window barrier).  :meth:`ShardedSimulation.run` runs
the windows one after another on the calling thread, or -- given the
run's handler table and a host with more than one usable CPU -- in
forked worker processes that each own a share of the shards
(`Worker processes`_).

Worker processes
----------------
The process driver forks after set-up, so every worker starts with the
whole simulation in memory and runs only its own shards (shard *i*
belongs to worker ``i % workers``; the calling process is worker 0).
Each window is one exchange per forked worker: the coordinator sends
the bounds and the envelopes bound for that worker's shards, and gets
back its shards' fresh ``eot`` and the envelopes they posted to shards
of other workers.  An envelope between two shards of one worker never
leaves its process.  One crossing workers travels as the plain tuple
``(*key, handler_index, *args)``, indexing the run's handler table, and
is rebuilt as an :class:`~repro.sim.mailbox.Envelope` on arrival.  The
bounds and the window sequence are the cooperative driver's, so the
delivery order, the digests and the sweep count are too.

Determinism contract
--------------------
The simulation produces the *same per-channel delivery order for every
shard count*.  Two mechanisms enforce this:

- every delivery is staged as an :class:`~repro.sim.mailbox.Envelope`
  and released in key order ``(recv_time, send_time, src, iface, seq)``
  -- all fields properties of the logical send, none of the layout;
- release happens batch-wise below a horizon no later-staged envelope
  can undercut (``min(bound, now + self_lookahead)``), so two
  equal-``recv_time`` envelopes always sit in the same batch and sort
  canonically, never in shard-arrival order.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
import traceback
from collections import deque
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.kernel import Kernel
from repro.sim.mailbox import Envelope, Staging

_INF = float("inf")

# -- partitioning helpers ------------------------------------------------------


def shard_core_blocks(n_cores: int, n_shards: int) -> List[List[int]]:
    """Split core indices into ``n_shards`` contiguous blocks.

    Contiguous blocks keep each shard's cores on as few NUMA nodes as
    possible.  :class:`~repro.runtime.simulated.SmpSimRuntime` pins a
    component of shard *k* to a core of block *k*."""
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    if n_shards > n_cores:
        raise ValueError(f"{n_shards} shards need at least {n_shards} cores, have {n_cores}")
    base, extra = divmod(n_cores, n_shards)
    blocks: List[List[int]] = []
    start = 0
    for k in range(n_shards):
        size = base + (1 if k < extra else 0)
        blocks.append(list(range(start, start + size)))
        start += size
    return blocks


def partition_graph(
    names: Sequence[str],
    edges: Iterable[Tuple[str, str]],
    n_shards: int,
    affinity: Optional[Dict[str, int]] = None,
) -> Dict[str, int]:
    """Partition a component graph into ``n_shards`` balanced parts.

    Greedy heuristic: order components by BFS over the (undirected)
    connection graph and fill shards with contiguous BFS runs of equal
    size, so tightly coupled neighborhoods land together and the cut
    stays small.  ``affinity`` pins named components to shards
    (user-supplied placement wins over the heuristic).  Fully
    deterministic: ties follow the declaration order of ``names`` and
    ``edges``.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    names = list(names)
    if len(set(names)) != len(names):
        raise ValueError("component names must be unique")
    if n_shards > len(names):
        raise ValueError(
            f"cannot spread {len(names)} component(s) over {n_shards} shards "
            f"without empty shards; use at most {len(names)} shards"
        )
    affinity = dict(affinity or {})
    known = set(names)
    for name, shard in affinity.items():
        if name not in known:
            raise ValueError(f"affinity names unknown component {name!r}")
        if not 0 <= shard < n_shards:
            raise ValueError(f"affinity pins {name!r} to shard {shard}, have {n_shards}")

    order_of = {n: i for i, n in enumerate(names)}
    adjacency: Dict[str, List[str]] = {n: [] for n in names}
    for a, b in edges:
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown component")
        if a != b:
            adjacency[a].append(b)
            adjacency[b].append(a)

    # Deterministic BFS over every connected part, seeds in name order,
    # neighbours in declaration order.
    bfs: List[str] = []
    seen = set()
    for seed in names:
        if seed in seen:
            continue
        queue = deque([seed])
        seen.add(seed)
        while queue:
            node = queue.popleft()
            bfs.append(node)
            for nxt in sorted(set(adjacency[node]), key=order_of.__getitem__):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)

    assignment = dict(affinity)
    pinned_load = [0] * n_shards
    for shard in affinity.values():
        pinned_load[shard] += 1

    target = len(names) / n_shards
    shard = 0
    load = pinned_load[0]
    for name in bfs:
        if name in assignment:
            continue
        while shard < n_shards - 1 and load + 0.5 >= target:
            shard += 1
            load = pinned_load[shard]
        assignment[name] = shard
        load += 1
    return assignment


# -- the shard -----------------------------------------------------------------


class Shard:
    """One partition: a private kernel plus its staged-delivery state.

    The shard's kernel runs with local deadlock detection disabled -- an
    idle shard with pending cross-shard input is *not* deadlocked; only
    the coordinator, after draining every inbox, may declare deadlock.
    """

    def __init__(self, index: int) -> None:
        if index < 0:
            raise ValueError(f"shard index must be non-negative, got {index}")
        self.index = index
        self.kernel = Kernel()
        self.kernel.deadlock_check = False
        #: Cross-shard envelopes posted by other shards since the last
        #: drain; their order is irrelevant, :attr:`staging` re-orders
        #: them by key.
        self.inbox: List[Envelope] = []
        self.staging = Staging()
        #: Smallest link latency of any channel whose *sender and
        #: receiver both live on this shard* (inf when none): while the
        #: shard executes, no new envelope can appear with a receive
        #: time below ``now + self_lookahead``, which is what makes the
        #: batch release horizon safe.
        self.self_lookahead: float = _INF
        #: Release staged envelopes as one kernel callback per distinct
        #: ``recv_time`` (:meth:`Staging.release_batched`) instead of one
        #: per envelope.  On by default; the per-envelope path is kept
        #: for the batch-equivalence tests and as a bisection tool.
        self.batch_release = True
        #: Wall-clock seconds spent inside :meth:`run_until` -- the
        #: per-shard busy time the critical-path speedup metric uses.
        self.busy_s = 0.0
        #: Optional hook ``(envelope, cross_shard) -> None`` observing
        #: every staged delivery (the lookahead property tests record
        #: envelopes through this).
        self.on_envelope: Optional[Callable[[Envelope, bool], None]] = None

    # -- delivery intake ------------------------------------------------------

    def stage(self, envelope: Envelope) -> None:
        """Stage a *same-shard* delivery (called by this shard only)."""
        if self.on_envelope is not None:
            self.on_envelope(envelope, False)
        self.staging.push(envelope)

    def post(self, envelope: Envelope) -> None:
        """Post a *cross-shard* delivery (called by the sending shard)."""
        if self.on_envelope is not None:
            self.on_envelope(envelope, True)
        self.inbox.append(envelope)

    def drain_inbox(self) -> int:
        """Move posted envelopes into the staging heap.

        The whole window's worth of cross-shard arrivals lands as one
        chunk: a single O(n) heap merge instead of n sifts."""
        items, self.inbox = self.inbox, []
        return self.staging.push_many(items)

    # -- conservative execution ----------------------------------------------

    def eot(self) -> float:
        """Earliest possible next activity: the first pending kernel
        event or staged delivery, ``inf`` when fully idle.  Nothing this
        shard ever sends can reach a neighbor before ``eot() +
        lookahead``, which is what the coordinator's bounds build on."""
        t = self.kernel.peek()
        staged = self.staging._heap
        s = staged[0][0] if staged else _INF
        return s if t is None or s < t else t

    def run_until(self, bound: float) -> None:
        """Execute all shard-local work strictly below ``bound``.

        Alternates batch release of staged envelopes (in key order,
        below ``min(bound, now + self_lookahead)`` -- see the module
        docstring for why that horizon pins the canonical order) with
        kernel execution up to that horizon, and idle-advances the clock
        over gaps so later batches unlock.
        """
        kernel = self.kernel
        la = self.self_lookahead
        # The staging heap is mutated in place, so one reference serves
        # the whole window.
        staged = self.staging._heap
        release = (
            self.staging.release_batched
            if self.batch_release
            else self.staging.release_below
        )
        schedule_at = kernel.schedule_at
        t0 = perf_counter()
        try:
            while True:
                now = kernel.now
                horizon = now + la
                if bound < horizon:
                    horizon = bound
                if staged and staged[0][0] < horizon:
                    release(horizon, schedule_at)
                # Release emptied the staging heap below ``horizon``.
                t = kernel.peek()
                if t is not None and t < horizon:
                    # Events strictly below ``horizon``; new same-shard
                    # envelopes land at >= now + self_lookahead >=
                    # horizon, so none can undercut this execution window.
                    kernel.run(until=None if horizon == _INF else int(horizon) - 1)
                    continue
                nt = staged[0][0] if staged else _INF
                if t is not None and t < nt:
                    nt = t
                if nt >= bound:
                    return
                # Here nt >= horizon = now + la > now (add_link clamps la >= 1).
                # Nothing can happen in (now, nt): idle-advance so the
                # release horizon reaches the next staged envelope.
                kernel.idle_advance(nt)
        finally:
            self.busy_s += perf_counter() - t0

    # -- state across worker processes -----------------------------------------

    def _summary(self) -> tuple:
        """What a worker process reports for this shard after its last
        window (read back by :meth:`_adopt`)."""
        kernel, staging = self.kernel, self.staging
        return (
            kernel.now, kernel.events_executed, kernel._live_processes,
            self.busy_s, staging.released, staging.batches,
        )

    def _adopt(self, summary: tuple) -> None:
        """Take over the state a worker process ran this shard to.  This
        copy stopped at the fork, so its pending events and staged
        envelopes were delivered by the worker: drop them."""
        now, events, live, busy_s, released, batches = summary
        kernel, staging = self.kernel, self.staging
        kernel._heap.clear()
        kernel._imm.clear()
        kernel._alive = kernel._n_cancelled = 0
        kernel.idle_advance(now)
        kernel.events_executed = events
        kernel._live_processes = live
        self.busy_s = busy_s
        self.inbox = []
        staging._heap.clear()
        staging.released = released
        staging.batches = batches

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Shard {self.index} now={self.kernel.now} staged={len(self.staging)}>"


# -- worker processes ----------------------------------------------------------


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pin(cpus: Sequence[int], worker: int) -> None:
    """Bind the calling process to the worker's own CPU, where the
    platform allows.  Left to itself the scheduler can keep a freshly
    forked worker on its parent's CPU for the whole run."""
    if cpus:
        os.sched_setaffinity(0, {cpus[worker % len(cpus)]})


def _stalled() -> DeadlockError:
    # Unreachable while every lookahead is >= 1 ns: the globally
    # earliest shard is always below its bound.
    return DeadlockError("conservative synchronization stalled: no shard below its bound")


def _missing_handler(handler: Callable) -> SimulationError:
    name = getattr(handler, "__qualname__", None) or repr(handler)
    return SimulationError(f"envelope handler {name} is not in the run's handler table")


def _to_wire(envelopes: Iterable[Envelope], index: Dict[Callable, int]) -> List[tuple]:
    """Envelopes as ``(*key, handler_index, *args)`` tuples, which pickle."""
    try:
        return [env[:5] + (index[env[5]],) + env[6:] for env in envelopes]
    except KeyError as exc:
        raise _missing_handler(exc.args[0]) from None


def _from_wire(wires: Iterable[tuple], handlers: Sequence[Callable]) -> List[Envelope]:
    return [Envelope(*w[:5], handlers[w[5]], *w[6:]) for w in wires]


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception a worker process raised;
    the parent re-raises that exception with this as its cause."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


class _WorkerError:
    """A worker's reply when it failed: the exception and its traceback."""

    def __init__(self, exc: BaseException, tb: str) -> None:
        self.exc = exc
        self.tb = tb


class _Duplex:
    """Pickled messages over a pair of pipes: :meth:`send` writes one,
    :meth:`recv` reads one (``EOFError`` once the other end closed)."""

    def __init__(self, reader: int, writer: int) -> None:
        self._in = os.fdopen(reader, "rb")
        self._out = os.fdopen(writer, "wb")

    def send(self, message: Any) -> None:
        # Pickled whole before the first byte goes out, so a message
        # that fails to pickle leaves the stream intact.
        self._out.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        self._out.flush()

    def recv(self) -> Any:
        return pickle.load(self._in)

    def close(self) -> None:
        self._in.close()
        try:
            self._out.close()
        except BrokenPipeError:  # the other end is gone: nothing to flush to
            pass


def _reply(link: _Duplex, pid: int) -> Any:
    """Read a worker's reply, re-raising an exception it sent."""
    try:
        reply = link.recv()
    except (EOFError, pickle.UnpicklingError):
        raise SimulationError(f"shard worker process {pid} exited without replying") from None
    if isinstance(reply, _WorkerError):
        raise reply.exc from _WorkerTraceback(reply.tb)
    return reply


# -- the coordinator -----------------------------------------------------------


class ShardedSimulation:
    """Coordinates N shards under conservative lookahead bounds.

    ``add_link(src, dst, latency_ns)`` declares a channel between shards
    (including ``src == dst`` for intra-shard channels, which feed the
    shards' self-lookahead); the *minimum* latency per directed shard
    pair becomes that pair's lookahead.  :meth:`run` then sweeps:

    1. if every shard's ``eot_i`` is ``inf`` the simulation is over (or
       deadlocked, if processes are still alive),
    2. compute ``bound_i = min_k (eot_k + P[k][i])`` from the
       shortest-path lookahead table (:meth:`_bounds`),
    3. run every shard with ``eot_i < bound_i`` up to its bound,
    4. drain the non-empty inboxes into their staging heaps and
       refresh ``eot`` for the shards that ran or received envelopes --
       every other shard's kernel and staging are untouched, so its
       cached ``eot`` still holds.

    The globally earliest shard always satisfies ``eot_i < bound_i``
    (lookaheads are >= 1 ns), so every sweep makes progress.  Envelopes
    posted mid-sweep carry receive times >= the pre-sweep ``eot_j +
    lookahead(j, i) >= bound_i``, so draining them after the window can
    never miss work below any bound already handed out.
    """

    def __init__(self, shards: Sequence[Shard]) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        for i, shard in enumerate(shards):
            if shard.index != i:
                raise ValueError(
                    f"shard at position {i} has index {shard.index}; "
                    "pass shards sorted by index"
                )
        self.shards = list(shards)
        n = len(self.shards)
        self._lookahead: Dict[Tuple[int, int], int] = {}
        #: ``_paths[k][i]``: the shortest chain of cross-shard links from
        #: shard *k* to shard *i* (at least one link; ``inf`` when none).
        self._paths: List[List[float]] = [[_INF] * n for _ in range(n)]
        #: Per destination *i*, the ``(k, _paths[k][i])`` pairs with a
        #: finite path -- what :meth:`_bounds` reads.
        self._into: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self.sweeps = 0
        #: Worker processes the last :meth:`run` used (1: cooperative).
        self.workers = 1
        #: ``(shard indices, state)`` per forked worker of the last
        #: :meth:`run`: what its ``export`` returned for its shards.
        self.exported: List[Tuple[List[int], Any]] = []

    def add_link(self, src_shard: int, dst_shard: int, latency_ns: int) -> None:
        """Declare a channel from ``src_shard`` to ``dst_shard`` with a
        guaranteed minimum delivery latency (clamped to >= 1 ns)."""
        n = len(self.shards)
        if not (0 <= src_shard < n and 0 <= dst_shard < n):
            raise ValueError(f"link ({src_shard}, {dst_shard}) out of range for {n} shards")
        latency = max(1, int(latency_ns))
        key = (src_shard, dst_shard)
        current = self._lookahead.get(key)
        if current is None or latency < current:
            self._lookahead[key] = latency
            if src_shard != dst_shard:
                self._shorten(src_shard, dst_shard, latency)
        if src_shard == dst_shard:
            shard = self.shards[src_shard]
            shard.self_lookahead = min(shard.self_lookahead, latency)

    def _shorten(self, a: int, b: int, latency: int) -> None:
        """Fold a lowered link ``a -> b`` into the path table: a path
        that now improves runs ``k ~> a -> b ~> i``, so one O(n^2) pass
        over the old distances into ``a`` and out of ``b`` suffices."""
        paths = self._paths
        n = len(paths)
        to_a = [0 if k == a else paths[k][a] for k in range(n)]
        from_b = [0 if i == b else paths[b][i] for i in range(n)]
        for k in range(n):
            via = to_a[k] + latency
            if via == _INF:
                continue
            row = paths[k]
            for i in range(n):
                if via + from_b[i] < row[i]:
                    row[i] = via + from_b[i]
        self._into = [
            [(k, paths[k][i]) for k in range(n) if paths[k][i] != _INF] for i in range(n)
        ]

    def _bounds(self, eots: Sequence[float]) -> List[float]:
        """Per-shard execution bounds ``min_k (eot_k + P[k][i])``.

        A locally idle shard is not unreachable: a third shard can wake
        it, and it would then send onward.  The earliest instant shard
        *j* could possibly act is therefore the Chandy/Misra fixed point

            ``E_j = min(eot_j, min_k (E_k + lookahead(k, j)))``

        and ``bound_i = min_j (E_j + lookahead(j, i))``.  Unrolled, the
        fixed point is ``E_j = min_k (eot_k + dist(k, j))``, so the bound
        is the shortest path of at least one link from any shard *k*,
        ``P[k][i]``, added to ``eot_k``.  :meth:`add_link` keeps ``P``
        current, so no relaxation runs per sweep, and a shard can never
        outrun a message routed to it through any chain of currently
        idle shards."""
        bounds = []
        for into in self._into:
            bound = _INF
            for k, path in into:
                t = eots[k] + path
                if t < bound:
                    bound = t
            bounds.append(bound)
        return bounds

    def _finished(self, eots: Sequence[float]) -> bool:
        """All-idle check; raises only after every inbox is drained,
        so a shard idling on pending cross-shard input never
        false-positives as deadlock."""
        if min(eots) != _INF:
            return False
        live = sum(s.kernel._live_processes for s in self.shards)
        if live:
            raise DeadlockError(
                f"all {len(self.shards)} shards idle with inboxes drained "
                f"but {live} process(es) still alive"
            )
        # Quiescent: align every clock to the global maximum, so work
        # injected *between* runs (observer queries, shutdown controls)
        # can never reach a shard in its past.
        t_max = max(s.kernel.now for s in self.shards)
        for s in self.shards:
            if s.kernel.now < t_max:
                s.kernel.idle_advance(t_max)
        return True

    def _run_window(
        self, indices: Iterable[int], eots: Sequence[float], bounds: Sequence[float]
    ) -> None:
        """Run each shard of ``indices`` whose ``eot`` is below its bound
        up to that bound: one window of the process driver, for one
        worker's shards."""
        shards = self.shards
        for i in indices:
            if eots[i] < bounds[i]:
                shards[i].run_until(bounds[i])

    def run(
        self,
        handlers: Optional[Sequence[Callable]] = None,
        export: Optional[Callable[[List[int]], Any]] = None,
    ) -> int:
        """Sweep windows until every shard is idle; returns the number
        of sweeps.

        ``handlers`` is the run's handler table: every handler an
        envelope crossing shards may carry.  With it, and when more
        than one CPU is usable, the shards run in ``min(shards, usable
        CPUs)`` forked worker processes (module docstring), and each
        forked worker's ``export(its shard indices)`` lands in
        :attr:`exported`.  Without it, or with one usable CPU, no
        ``os.fork`` or another live thread (forking would copy a lock
        some thread holds), the windows run on the calling thread.
        Either way every shard here ends holding its final clock and
        counters."""
        self.workers = 1
        self.exported = []
        if handlers is not None:
            index = {handler: k for k, handler in enumerate(handlers)}
            for shard in self.shards:
                shard.drain_inbox()
                for env in shard.staging._heap:
                    if env[5] not in index:
                        raise _missing_handler(env[5])
            workers = min(len(self.shards), usable_cpus())
            if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
                return self._run_forked(handlers, index, export, workers)
        return self._run_here()

    def _run_here(self) -> int:
        """The cooperative driver: every window on the calling thread.
        ``eots`` is cached across sweeps and refreshed only where a
        window or an arrival could move it."""
        shards = self.shards
        for shard in shards:
            shard.drain_inbox()
        eots = [s.eot() for s in shards]
        while not self._finished(eots):
            bounds = self._bounds(eots)
            runnable = [i for i, e in enumerate(eots) if e < bounds[i]]
            if not runnable:
                raise _stalled()
            for i in runnable:
                shards[i].run_until(bounds[i])
            self.sweeps += 1
            for i, shard in enumerate(shards):
                if shard.inbox:
                    shard.drain_inbox()
                elif i not in runnable:
                    continue
                eots[i] = shard.eot()
        return self.sweeps

    def _run_forked(
        self,
        handlers: Sequence[Callable],
        index: Dict[Callable, int],
        export: Optional[Callable[[List[int]], Any]],
        n_workers: int,
    ) -> int:
        """The process driver: fork ``n_workers - 1`` workers and
        coordinate the windows, running worker 0's shards here."""
        shards = self.shards
        n = len(shards)
        eots = [s.eot() for s in shards]
        if self._finished(eots):
            return self.sweeps
        owner = [i % n_workers for i in range(n)]
        owned = [list(range(w, n, n_workers)) for w in range(n_workers)]
        children: List[Tuple[int, _Duplex]] = []
        clean = False
        mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
        cpus = sorted(mask) if mask else []
        # Objects alive now are shared with every worker: freezing them
        # keeps the collectors from touching (and so copying) their pages.
        gc.freeze()
        try:
            for w in range(1, n_workers):
                down, up = os.pipe(), os.pipe()
                pid = os.fork()
                if pid == 0:  # pragma: no cover - runs in the worker
                    os.close(down[1])
                    os.close(up[0])
                    for _, sibling in children:
                        sibling.close()
                    _pin(cpus, w)
                    self._serve(_Duplex(down[0], up[1]), owned[w], handlers, index, export)
                os.close(down[0])
                os.close(up[1])
                children.append((pid, _Duplex(up[0], down[1])))
            self.workers = n_workers
            _pin(cpus, 0)
            # pending[w][i]: wire envelopes for shard i of worker w.
            pending: List[Dict[int, List[tuple]]] = [{} for _ in range(n_workers)]
            while min(eots) != _INF:
                bounds = self._bounds(eots)
                if not any(e < b for e, b in zip(eots, bounds)):
                    raise _stalled()
                for w, (_, link) in enumerate(children, 1):
                    link.send((eots, bounds, pending[w]))
                    pending[w] = {}
                self._run_window(owned[0], eots, bounds)
                self.sweeps += 1
                for i, shard in enumerate(shards):
                    if shard.inbox and owner[i]:
                        pending[owner[i]][i] = _to_wire(shard.inbox, index)
                        shard.inbox = []
                for w, (pid, link) in enumerate(children, 1):
                    fresh, outbound = _reply(link, pid)
                    for i, eot in zip(owned[w], fresh):
                        eots[i] = eot
                    for i, wires in outbound.items():
                        if owner[i]:
                            pending[owner[i]].setdefault(i, []).extend(wires)
                        else:
                            shards[i].inbox.extend(_from_wire(wires, handlers))
                for i in owned[0]:
                    shard = shards[i]
                    if shard.inbox:
                        shard.drain_inbox()
                    eots[i] = shard.eot()
                # A worker drains what it is sent before its next window.
                for bound_for in pending[1:]:
                    for i, wires in bound_for.items():
                        eots[i] = min(eots[i], min(wire[0] for wire in wires))
            for _, link in children:
                link.send(None)
            for w, (pid, link) in enumerate(children, 1):
                summaries, state = _reply(link, pid)
                for i, summary in zip(owned[w], summaries):
                    shards[i]._adopt(summary)
                self.exported.append((owned[w], state))
            clean = True
        finally:
            gc.unfreeze()
            if mask:
                os.sched_setaffinity(0, mask)
            for pid, link in children:
                if not clean:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                link.close()
        self._finished(eots)
        return self.sweeps

    def _serve(
        self,
        link: _Duplex,
        mine: List[int],
        handlers: Sequence[Callable],
        index: Dict[Callable, int],
        export: Optional[Callable[[List[int]], Any]],
    ) -> None:  # pragma: no cover - runs in the worker
        """A forked worker's loop: run the windows of shards ``mine``
        as the coordinator asks, then report their state and exit.  An
        exception goes back to the coordinator; the worker never
        returns into its caller."""
        code = 1
        try:
            shards = self.shards
            others = [i for i in range(len(shards)) if i not in mine]
            while True:
                message = link.recv()
                if message is None:
                    state = export(mine) if export is not None else None
                    link.send(([shards[i]._summary() for i in mine], state))
                    code = 0
                    return
                eots, bounds, inbound = message
                for i, wires in inbound.items():
                    shard = shards[i]
                    shard.inbox.extend(_from_wire(wires, handlers))
                    shard.drain_inbox()
                self._run_window(mine, eots, bounds)
                outbound = {}
                for i in others:
                    shard = shards[i]
                    if shard.inbox:
                        outbound[i] = _to_wire(shard.inbox, index)
                        shard.inbox = []
                for i in mine:
                    if shards[i].inbox:
                        shards[i].drain_inbox()
                link.send(([shards[i].eot() for i in mine], outbound))
        except BaseException as exc:  # noqa: BLE001 - reported to the coordinator
            tb = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - any type can fail to round-trip
                exc = SimulationError(f"{type(exc).__name__}: {exc}")
            link.send(_WorkerError(exc, tb))
        finally:
            os._exit(code)
