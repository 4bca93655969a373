"""Sharded conservative parallel discrete-event simulation.

One logical machine is partitioned into N *shards*, each owning a
disjoint subset of the component graph.  A shard is a clock plus a heap
of undelivered envelopes (:class:`~repro.sim.mailbox.Staging`) in key
order; that heap is its whole event queue, and a delivery runs its
handler at once, at the envelope's ``recv_time``.  Shards exchange
messages only through the envelope layer of :mod:`repro.sim.mailbox`
and advance under **conservative synchronization**
(Chandy/Misra/Bryant family) with one lookahead for the whole run: no
message reaches any shard sooner than ``lookahead`` after the delivery
that sent it.  Each window therefore runs every shard below the one bound

    ``bound = min over all shards j of eot_j + lookahead``

where ``eot_j`` is shard *j*'s earliest staged delivery: nothing any
shard does in the window can land below it.  No null messages
circulate; a coordinator recomputes the bound each sweep (a time-window
barrier).  The only workload on this layer, ``traffic``, costs every
hop the same ``COMPUTE_NS + LINK_NS``, so that hop is its lookahead.
Every envelope names its handler by an index into the run's one handler
table, given to :class:`ShardedSimulation` and shared by every shard.
:meth:`ShardedSimulation.run` runs one coordinator loop.  Given an
``export`` callback and a host with more than one usable CPU, it forks
worker processes that each own a share of the shards (`Worker
processes`_); otherwise it runs every shard on the calling thread, as a
loop with no workers.

Worker processes
----------------
The process driver forks after set-up, so every worker starts with the
whole simulation in memory and runs only its own shards (shard *i*
belongs to worker ``i % workers``; the calling process is worker 0).
Each window is one exchange per forked worker: the coordinator sends
the bound and the envelopes bound for that worker's shards, and gets
back its shards' least ``eot`` and the envelopes they posted to shards
of other workers.  An envelope between two shards of one worker never
leaves its process.  One crossing workers is pickled as the plain
tuple it is (:mod:`repro.sim.mailbox`): its handler is an index, so the
worker at the other end delivers it through its own copy of the table.
The bound and the window sequence do not depend on the worker count, so
the delivery order, the digests and the sweep count do not either.

Determinism contract
--------------------
The simulation produces the *same per-channel delivery order for every
shard count*.  Two mechanisms enforce this:

- every delivery is staged as an envelope (:mod:`repro.sim.mailbox`)
  and delivered in key order ``(recv_time, send_time, src, iface, seq)``
  -- all fields properties of the logical send, none of the layout;
- release happens batch-wise below a horizon no later-staged envelope
  can undercut (``min(bound, head + lookahead)``, ``head`` being the
  earliest staged ``recv_time``), so two equal-``recv_time`` envelopes
  always sit in the same batch and sort canonically, never in
  shard-arrival order.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
import traceback
from collections import deque
from time import thread_time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.errors import SchedulingError, SimulationError
from repro.sim.mailbox import Staging

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
    deterministic: ties follow the declaration order of ``names``.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    names = list(names)
    index_of = {n: i for i, n in enumerate(names)}
    if len(index_of) != len(names):
        raise ValueError("component names must be unique")
    if n_shards > len(names):
        raise ValueError(
            f"cannot spread {len(names)} component(s) over {n_shards} shards "
            f"without empty shards; use at most {len(names)} shards"
        )
    affinity = dict(affinity or {})
    for name, shard in affinity.items():
        if name not in index_of:
            raise ValueError(f"affinity names unknown component {name!r}")
        if not 0 <= shard < n_shards:
            raise ValueError(f"affinity pins {name!r} to shard {shard}, have {n_shards}")

    adjacency: List[List[int]] = [[] for _ in names]
    for a, b in edges:
        try:
            i, j = index_of[a], index_of[b]
        except KeyError:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown component") from None
        if i != j:
            adjacency[i].append(j)
            adjacency[j].append(i)

    # Deterministic BFS over every connected part, seeds and neighbours
    # in name order (a component's index is its place in ``names``).  A
    # neighbour listed twice is skipped the second time as seen.
    bfs: List[int] = []
    seen = [False] * len(names)
    for seed in range(len(names)):
        if seen[seed]:
            continue
        queue = deque([seed])
        seen[seed] = True
        while queue:
            node = queue.popleft()
            bfs.append(node)
            for nxt in sorted(adjacency[node]):
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)

    assignment = dict(affinity)
    pinned_load = [0] * n_shards
    for shard in affinity.values():
        pinned_load[shard] += 1

    target = len(names) / n_shards
    shard = 0
    load = pinned_load[0]
    for node in bfs:
        name = names[node]
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
    """One partition: a clock and a key-ordered heap of envelopes."""

    def __init__(self, index: int) -> None:
        if index < 0:
            raise ValueError(f"shard index must be non-negative, got {index}")
        self.index = index
        #: Simulated time (ns) of the last delivery on this shard.
        self.now = 0
        #: Cross-shard envelopes posted by other shards since the last
        #: drain; their order is irrelevant, :attr:`staging` re-orders
        #: them by key.
        self.inbox: List[tuple] = []
        self.staging = Staging()
        #: The run's handler table, which :class:`ShardedSimulation`
        #: shares with every shard: an envelope's ``handler_index``
        #: points into it.
        self.handlers: Tuple[Callable[..., None], ...] = ()
        #: CPU seconds this shard's thread spent inside :meth:`run_until`
        #: -- the per-shard busy time the critical-path speedup metric
        #: uses.  CPU time, not wall time: a worker process the host
        #: deschedules is not busy.
        self.busy_s = 0.0

    # -- delivery intake ------------------------------------------------------

    def stage(self, envelope: tuple) -> None:
        """Stage a *same-shard* delivery (called by this shard only)."""
        if envelope[0] < envelope[1] or not 0 <= envelope[5] < len(self.handlers):
            raise self._refusal(envelope)
        self.staging.push(envelope)

    def post(self, envelope: tuple) -> None:
        """Post a *cross-shard* delivery (called by the sending shard)."""
        if envelope[0] < envelope[1] or not 0 <= envelope[5] < len(self.handlers):
            raise self._refusal(envelope)
        self.inbox.append(envelope)

    def _refusal(self, envelope: tuple) -> Exception:
        """Why :meth:`stage` or :meth:`post` refused ``envelope``."""
        if envelope[0] < envelope[1]:
            return ValueError(
                f"recv_time {envelope[0]} precedes send_time {envelope[1]} "
                f"(negative link latency?)"
            )
        return SimulationError(
            f"envelope handler index {envelope[5]!r} is not in the run's handler "
            f"table of {len(self.handlers)}"
        )

    def drain_inbox(self) -> int:
        """Move posted envelopes into the staging heap.

        The whole window's worth of cross-shard arrivals lands as one
        chunk: a single O(n) heap merge instead of n sifts."""
        items, self.inbox = self.inbox, []
        return self.staging.push_many(items)

    # -- conservative execution ----------------------------------------------

    def eot(self) -> float:
        """Earliest possible next activity: the first staged delivery,
        ``inf`` when fully idle.  Nothing this shard ever sends can
        reach a shard before ``eot() + lookahead``, which is what the
        coordinator's bound builds on."""
        staged = self.staging._heap
        return staged[0][0] if staged else _INF

    def _deliver(self, t: int, handler: Callable[..., None], *args: Any) -> None:
        """Run one released delivery at once, at its ``recv_time``."""
        if t < self.now:
            raise SchedulingError(f"cannot schedule in the past: {t} < {self.now}")
        self.now = t
        handler(*args)

    def run_until(self, bound: float, lookahead: int) -> None:
        """Deliver every staged envelope below ``bound``, in key order.

        Each step releases the envelopes below ``min(bound, head +
        lookahead)``, ``head`` being the earliest staged ``recv_time``.
        Whatever a delivery stages lands at least one lookahead after
        it, so at or past the horizon just released: nothing staged
        during a step can belong to it (see the module docstring for
        why that horizon pins the canonical order).
        """
        # The staging heap is mutated in place, so one reference serves
        # the whole window.
        staged = self.staging._heap
        release = self.staging.release_batched
        deliver = self._deliver
        handlers = self.handlers
        t0 = thread_time()
        try:
            while staged and staged[0][0] < bound:
                horizon = staged[0][0] + lookahead
                release(bound if bound < horizon else horizon, deliver, handlers)
        finally:
            self.busy_s += thread_time() - t0

    # -- state across worker processes -----------------------------------------

    def _summary(self) -> tuple:
        """What a worker process reports for this shard after its last
        window (read back by :meth:`_adopt`)."""
        staging = self.staging
        return (self.now, self.busy_s, staging.released, staging.batches)

    def _adopt(self, summary: tuple) -> None:
        """Take over the state a worker process ran this shard to.  This
        copy stopped at the fork, so its staged envelopes were delivered
        by the worker: drop them."""
        staging = self.staging
        self.now, self.busy_s, staging.released, staging.batches = summary
        self.inbox = []
        staging._heap.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Shard {self.index} now={self.now} staged={len(self.staging)}>"


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
    """Coordinates N shards under one conservative lookahead.

    ``lookahead_ns`` is the least delay, at least 1 ns, from the event
    that sends an envelope to that envelope's delivery, on one shard or
    across two.  ``handlers`` is the run's handler table, which every
    shard delivers through: an envelope's ``handler_index`` points into
    it, and :meth:`Shard.stage` and :meth:`Shard.post` refuse an index
    outside it.  :meth:`run` then sweeps:

    1. drain every inbox and take every shard's ``eot``; if all are
       ``inf`` the simulation is over,
    2. bound the window at ``min(eot) + lookahead`` (no bound with one
       shard: it has nobody to wait for),
    3. run every shard whose ``eot`` is below the bound up to it.

    The shard holding the least ``eot`` always runs, so every sweep
    makes progress.  Everything sent in a window was sent at or after
    the least ``eot``, so it arrives at or after the bound: draining it
    after the window can never miss work below the bound.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        lookahead_ns: int,
        handlers: Sequence[Callable[..., None]],
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        for i, shard in enumerate(shards):
            if shard.index != i:
                raise ValueError(
                    f"shard at position {i} has index {shard.index}; "
                    "pass shards sorted by index"
                )
        if lookahead_ns < 1:
            raise ValueError(
                f"lookahead must be at least 1 ns, got {lookahead_ns}: a send "
                "delivered at its own instant leaves no window to run"
            )
        self.shards = list(shards)
        self.lookahead = lookahead_ns
        self.handlers = tuple(handlers)
        for shard in self.shards:
            shard.handlers = self.handlers
        self.sweeps = 0
        #: Worker processes the last :meth:`run` used (1: cooperative).
        self.workers = 1
        #: ``(shard indices, state)`` per forked worker of the last
        #: :meth:`run`: what its ``export`` returned for its shards.
        self.exported: List[Tuple[List[int], Any]] = []

    def _bound(self, least: float) -> float:
        """The bound of a window whose least ``eot`` is ``least``."""
        return _INF if len(self.shards) == 1 else least + self.lookahead

    def _quiesce(self) -> None:
        """Align every clock to the global maximum once all shards are
        idle, so work injected *between* runs (observer queries,
        shutdown controls) can never reach a shard in its past."""
        t_max = max(s.now for s in self.shards)
        for s in self.shards:
            s.now = t_max

    def _run_window(self, indices: Iterable[int], bound: float) -> None:
        """Run each shard of ``indices`` whose ``eot`` is below
        ``bound`` up to it: one window, for one worker's shards."""
        shards, lookahead = self.shards, self.lookahead
        for i in indices:
            shard = shards[i]
            if shard.eot() < bound:
                shard.run_until(bound, lookahead)

    def run(self, export: Optional[Callable[[List[int]], Any]] = None) -> int:
        """Sweep windows until every shard is idle; returns the number
        of sweeps.

        ``export`` reads back what a forked worker computed for its
        shards.  With it, and when more than one CPU is usable, the
        shards run in ``min(shards, usable CPUs)`` worker processes,
        ``workers - 1`` of them forked (module docstring), and each
        forked worker's ``export(its shard indices)`` lands in
        :attr:`exported`.  Without it, or with one usable CPU, no
        ``os.fork`` or another live thread (forking would copy a lock
        some thread holds), the same loop runs every window on the
        calling thread.  Either way every shard here ends holding its
        final clock and counters."""
        self.workers = 1
        self.exported = []
        shards = self.shards
        n = len(shards)
        for shard in shards:
            if shard.inbox:
                shard.drain_inbox()
        n_workers = 1
        if export is not None and hasattr(os, "fork") and threading.active_count() == 1:
            n_workers = min(n, usable_cpus())
        owner = [i % n_workers for i in range(n)]
        owned = [list(range(w, n, n_workers)) for w in range(n_workers)]
        #: least[w]: the least ``eot`` of worker w's shards.
        least = [min(shards[i].eot() for i in mine) for mine in owned]
        if min(least) == _INF:
            self._quiesce()
            return self.sweeps
        children: List[Tuple[int, _Duplex]] = []
        clean = False
        forking = n_workers > 1
        mask = None
        if forking:
            if hasattr(os, "sched_setaffinity"):
                mask = os.sched_getaffinity(0)
            # Objects alive now are shared with every worker: freezing
            # them keeps the collectors from touching (and so copying)
            # their pages.
            gc.freeze()
        cpus = sorted(mask) if mask else []
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
                    self._serve(_Duplex(down[0], up[1]), owned[w], export)
                os.close(down[0])
                os.close(up[1])
                children.append((pid, _Duplex(up[0], down[1])))
            self.workers = n_workers
            _pin(cpus, 0)
            # pending[w][i]: envelopes for shard i of worker w.
            pending: List[Dict[int, List[tuple]]] = [{} for _ in range(n_workers)]
            while min(least) != _INF:
                bound = self._bound(min(least))
                for w, (_, link) in enumerate(children, 1):
                    link.send((bound, pending[w]))
                    pending[w] = {}
                self._run_window(owned[0], bound)
                self.sweeps += 1
                for i, shard in enumerate(shards):
                    if shard.inbox and owner[i]:
                        pending[owner[i]][i] = shard.inbox
                        shard.inbox = []
                for w, (pid, link) in enumerate(children, 1):
                    least[w], outbound = _reply(link, pid)
                    for i, envelopes in outbound.items():
                        if owner[i]:
                            pending[owner[i]].setdefault(i, []).extend(envelopes)
                        else:
                            shards[i].inbox.extend(envelopes)
                for i in owned[0]:
                    if shards[i].inbox:
                        shards[i].drain_inbox()
                least[0] = min(shards[i].eot() for i in owned[0])
                # A worker drains what it is sent before its next window.
                for w, bound_for in enumerate(pending[1:], 1):
                    for envelopes in bound_for.values():
                        least[w] = min(least[w], min(env[0] for env in envelopes))
            for _, link in children:
                link.send(None)
            for w, (pid, link) in enumerate(children, 1):
                summaries, state = _reply(link, pid)
                for i, summary in zip(owned[w], summaries):
                    shards[i]._adopt(summary)
                self.exported.append((owned[w], state))
            clean = True
        finally:
            if forking:
                gc.unfreeze()
            if mask:
                os.sched_setaffinity(0, mask)
            for pid, link in children:
                if not clean:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                link.close()
        self._quiesce()
        return self.sweeps

    def _serve(
        self,
        link: _Duplex,
        mine: List[int],
        export: Callable[[List[int]], Any],
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
                    link.send(([shards[i]._summary() for i in mine], export(mine)))
                    code = 0
                    return
                bound, inbound = message
                for i, envelopes in inbound.items():
                    shard = shards[i]
                    shard.inbox.extend(envelopes)
                    shard.drain_inbox()
                self._run_window(mine, bound)
                outbound = {}
                for i in others:
                    shard = shards[i]
                    if shard.inbox:
                        outbound[i] = shard.inbox
                        shard.inbox = []
                for i in mine:
                    if shards[i].inbox:
                        shards[i].drain_inbox()
                link.send((min(shards[i].eot() for i in mine), outbound))
        except BaseException as exc:  # noqa: BLE001 - reported to the coordinator
            tb = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - any type can fail to round-trip
                exc = SimulationError(f"{type(exc).__name__}: {exc}")
            link.send(_WorkerError(exc, tb))
        finally:
            os._exit(code)
