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
each sweep (a time-window barrier) and runs the windows one after
another on the calling thread (:meth:`ShardedSimulation.run`).

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

Span-id ranges
--------------
Merged traces from N shards must never collide on span/cause ids, so
each shard draws from its own range: shard *k* counts from
``(k << SHARD_SPAN_BITS) + 1`` (:func:`shard_span_source`), and
:func:`span_shard` recovers the owning shard from any id.  Shard 0's
range is identical to the unsharded runtime's, keeping single-shard
traces bit-compatible.
"""

from __future__ import annotations

from itertools import count
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.kernel import Kernel
from repro.sim.mailbox import Envelope, Staging

_INF = float("inf")

#: Span/cause ids carry the owning shard in the bits above this position.
SHARD_SPAN_BITS = 48


def shard_span_source(shard_index: int) -> Iterator[int]:
    """A span-id counter drawing from shard ``shard_index``'s private
    range -- ids from different shards can never collide in a merged
    trace.  Shard 0 yields 1, 2, 3, ... exactly like the unsharded
    runtime."""
    if shard_index < 0:
        raise ValueError(f"shard index must be non-negative, got {shard_index}")
    return count((shard_index << SHARD_SPAN_BITS) + 1)


def span_shard(span_id: int) -> int:
    """The shard that allocated ``span_id`` (0 for unsharded runs)."""
    return span_id >> SHARD_SPAN_BITS


def shard_window_source(shard_index: int) -> Iterator[int]:
    """A telemetry-window-id counter from shard ``shard_index``'s
    private range -- the same scheme as :func:`shard_span_source`, so
    merged metrics series (:func:`repro.metrics.telemetry.merge_registries`)
    never collide on window ids and shard 0 numbers windows exactly like
    an unsharded registry."""
    return shard_span_source(shard_index)


# -- partitioning helpers ------------------------------------------------------


def shard_core_blocks(n_cores: int, n_shards: int) -> List[List[int]]:
    """Split core indices into ``n_shards`` contiguous blocks.

    Contiguous blocks keep each shard's cores on as few NUMA nodes as
    possible, so intra-shard link latencies (and thus self-lookahead)
    stay small."""
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
    weights: Optional[Dict[str, float]] = None,
    edge_weights: Optional[Dict[Tuple[str, str], float]] = None,
) -> Dict[str, int]:
    """Partition a component graph into ``n_shards`` balanced parts.

    Greedy heuristic: order components by BFS over the (undirected)
    connection graph and fill shards with contiguous BFS runs, so
    tightly coupled neighborhoods land together and the cut stays small.
    ``affinity`` pins named components to shards (user-supplied
    placement wins over the heuristic); ``weights`` biases balance
    (default: every component weighs 1).  ``edge_weights`` (keyed by
    directed ``(src, dst)`` pairs, accumulated symmetrically) steers the
    BFS to expand the *heaviest* neighbor first, so observed-hot edges
    are the last ones a shard boundary cuts -- this is how a measured
    traffic profile feeds back into the cut
    (:func:`repartition_from_profile`).  Fully deterministic: ties
    follow the declaration order of ``names`` and ``edges``.
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
    for name, shard in affinity.items():
        if name not in set(names):
            raise ValueError(f"affinity names unknown component {name!r}")
        if not 0 <= shard < n_shards:
            raise ValueError(f"affinity pins {name!r} to shard {shard}, have {n_shards}")
    weight = {n: float((weights or {}).get(n, 1.0)) for n in names}

    order_of = {n: i for i, n in enumerate(names)}
    adjacency: Dict[str, List[str]] = {n: [] for n in names}
    for a, b in edges:
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown component")
        if a != b:
            adjacency[a].append(b)
            adjacency[b].append(a)
    pair_weight: Dict[Tuple[str, str], float] = {}
    for (a, b), w in (edge_weights or {}).items():
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"edge weight ({a!r}, {b!r}) references unknown component")
        if a != b:
            key = (a, b) if order_of[a] <= order_of[b] else (b, a)
            pair_weight[key] = pair_weight.get(key, 0.0) + float(w)

    def hop_weight(a: str, b: str) -> float:
        key = (a, b) if order_of[a] <= order_of[b] else (b, a)
        return pair_weight.get(key, 0.0)

    # Deterministic BFS over every connected part, seeds in name order;
    # within a node, heaviest observed edge expands first.
    bfs: List[str] = []
    seen = set()
    for seed in names:
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        while queue:
            node = queue.pop(0)
            bfs.append(node)
            for nxt in sorted(
                set(adjacency[node]),
                key=lambda m: (-hop_weight(node, m), order_of[m]),
            ):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)

    assignment = dict(affinity)
    total = sum(weight.values())
    pinned_load = [0.0] * n_shards
    for name, shard in affinity.items():
        pinned_load[shard] += weight[name]

    target = total / n_shards
    shard = 0
    load = pinned_load[0]
    for name in bfs:
        if name in assignment:
            continue
        while shard < n_shards - 1 and load + weight[name] / 2 >= target:
            shard += 1
            load = pinned_load[shard]
        assignment[name] = shard
        load += weight[name]
    return assignment


def cut_edges(
    assignment: Dict[str, int], edges: Iterable[Tuple[str, str]]
) -> List[Tuple[str, str]]:
    """The edges crossing shards under ``assignment`` (diagnostics)."""
    return [(a, b) for a, b in edges if assignment[a] != assignment[b]]


#: Schema tag of the observed-traffic profile JSON (``repro run
#: --record-profile`` writes it, ``--repartition`` reads it back).
PROFILE_SCHEMA = "repro.profile/v1"


def profile_weights(
    profile: Dict,
) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float]]:
    """Extract ``(node_weights, edge_weights)`` from a traffic profile.

    A profile is the JSON document a measured run records: per-component
    observed busy time (``components: {name: {busy_ns, events, ...}}``,
    bare numbers accepted) and per-connection observed message counts
    (``edges: [{src, dst, messages}]``).  Node weights fall back from
    ``busy_ns`` to ``events`` to 1, floored at 1 so an idle component
    still occupies space on its shard.
    """
    schema = profile.get("schema", PROFILE_SCHEMA)
    if schema != PROFILE_SCHEMA:
        raise ValueError(f"unknown profile schema {schema!r}; expected {PROFILE_SCHEMA!r}")
    node_weights: Dict[str, float] = {}
    for name, obs in profile.get("components", {}).items():
        if isinstance(obs, dict):
            value = obs.get("busy_ns")
            if not value:
                value = obs.get("events", 1)
        else:
            value = obs
        node_weights[name] = max(1.0, float(value))
    edge_weights: Dict[Tuple[str, str], float] = {}
    for edge in profile.get("edges", []):
        key = (edge["src"], edge["dst"])
        edge_weights[key] = edge_weights.get(key, 0.0) + float(edge.get("messages", 1))
    return node_weights, edge_weights


def repartition_from_profile(
    names: Sequence[str],
    edges: Iterable[Tuple[str, str]],
    n_shards: int,
    profile: Dict,
    affinity: Optional[Dict[str, int]] = None,
) -> Dict[str, int]:
    """Re-partition a component graph from *observed* weights.

    The adaptive half of the measure -> repartition -> rerun loop: the
    static heuristic assumes every component weighs 1 and every edge
    matters equally; a recorded profile replaces both with what the
    workload actually did (node weight = busy ns, edge weight = message
    count), so skewed workloads rebalance and hot paths stop straddling
    the cut.  Components present in the graph but absent from the
    profile weigh 1 -- a profile from a slightly older deploy still
    partitions the current graph.
    """
    node_weights, edge_weights = profile_weights(profile)
    known = set(names)
    node_weights = {n: w for n, w in node_weights.items() if n in known}
    edge_weights = {
        (a, b): w for (a, b), w in edge_weights.items() if a in known and b in known
    }
    return partition_graph(
        names,
        edges,
        n_shards,
        affinity=affinity,
        weights=node_weights,
        edge_weights=edge_weights,
    )


# -- the shard -----------------------------------------------------------------


class Shard:
    """One partition: a private kernel plus its staged-delivery state.

    The shard's kernel runs with local deadlock detection disabled -- an
    idle shard with pending cross-shard input is *not* deadlocked; only
    the coordinator, after draining every inbox, may declare deadlock.
    """

    def __init__(self, index: int, kernel: Optional[Kernel] = None, name: str = "") -> None:
        if index < 0:
            raise ValueError(f"shard index must be non-negative, got {index}")
        self.index = index
        self.name = name or f"shard{index}"
        self.kernel = kernel if kernel is not None else Kernel()
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
                if now >= nt:
                    raise SimulationError(
                        f"{self.name}: staged delivery at {nt} not ahead of "
                        f"clock {now} -- lookahead violated"
                    )
                # Nothing can happen in (now, nt): idle-advance so the
                # release horizon reaches the next staged envelope.
                kernel.idle_advance(nt)
        finally:
            self.busy_s += perf_counter() - t0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Shard {self.index} now={self.kernel.now} staged={len(self.staging)}>"


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

    def lookahead(self, src_shard: int, dst_shard: int) -> Optional[int]:
        """The conservative bound contribution of a shard pair, if any."""
        return self._lookahead.get((src_shard, dst_shard))

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

    def run(self) -> int:
        """Sweep windows on the calling thread until every shard is
        idle; returns the number of sweeps.  ``eots`` is cached across
        sweeps and refreshed only where a window or an arrival could
        move it."""
        shards = self.shards
        for shard in shards:
            shard.drain_inbox()
        eots = [s.eot() for s in shards]
        while not self._finished(eots):
            bounds = self._bounds(eots)
            runnable = [i for i, e in enumerate(eots) if e < bounds[i]]
            if not runnable:
                raise DeadlockError(
                    "conservative synchronization stalled: no shard below its bound"
                )
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
