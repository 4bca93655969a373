"""The traffic-model workload: a generated fan-in/fan-out service graph.

The "millions of users" scenario running *inside* the simulator: N
sessions issue requests into a service graph of lightweight components
arranged in four tiers --

    ingress (load balancers) -> frontends -> backends (fan-out) -> sinks

-- all on the raw shard layer (:mod:`repro.sim.shard`), so a 10k-
component deployment is a table of handlers, not 10k OS-model threads.
Every hop is an envelope (:mod:`repro.sim.mailbox`) with the usual
total-order key, which gives the workload the same determinism oracle
as the MJPEG pipeline: the per-component delivery sequence -- and hence
the trace digest -- is identical for every shard count.

Two properties are deliberate:

- **Tick alignment.**  All requests of a tick enter at the same instant
  and every hop costs the same fixed ``COMPUTE_NS + LINK_NS``, so each
  tier's deliveries for one tick share a receive timestamp.  That is
  the batched-release fast path (one released group per distinct
  timestamp, delivered back to back) at full strength -- exactly the
  shape of a load-balanced service where queues drain in waves.
- **Session skew.**  A small share of sessions is "heavy" (issues
  ``HEAVY_FACTOR`` requests per tick) and heavy sessions concentrate on
  the low-numbered ingresses, so load is uneven over the graph the way
  a real service's is: the static unit-weight partition leaves some
  shards hotter than others (``shard_events`` in the result), and the
  process driver has to run that uneven load.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Tuple

from repro.sim.shard import Shard, ShardedSimulation, partition_graph

_MASK64 = (1 << 64) - 1
_FNV = 1099511628211

#: Backends each frontend fans a request out to.
FANOUT = 2
#: Time between two load ticks.
TICK_NS = 1_000_000
#: A hop costs its handler's compute plus the link; their sum is the
#: lookahead every shard runs ahead by.
COMPUTE_NS = 2_000
LINK_NS = 500
#: Share of sessions that are heavy, and the requests per tick a heavy
#: session issues.
HEAVY_SHARE = 0.1
HEAVY_FACTOR = 4
#: Handler indices of the four tiers in a run's handler table.
INGRESS, FRONTEND, BACKEND, SINK = range(4)


@dataclass(frozen=True)
class TrafficConfig:
    """Shape and timing of one traffic run.

    ``n_components`` is split across the four tiers (~1.5% ingress, 25%
    frontends, ~6% sinks, the rest backends).  Every request costs
    ``2 + 2 * FANOUT`` deliveries (ingress, frontend, ``FANOUT``
    backends, their sinks), so total events are
    ``requests * (2 + 2 * FANOUT)`` with
    ``requests = ticks * sum(per-session activity)``.
    """

    n_components: int = 1000
    ticks: int = 3
    spin: int = 120  # pure-python work per event (honest busy time)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_components < 8:
            raise ValueError(
                f"traffic graph needs at least 8 components, got {self.n_components}"
            )
        if self.ticks < 1:
            raise ValueError(f"a run needs at least one load tick, got ticks={self.ticks}")

    @property
    def sessions(self) -> int:
        return max(4, self.n_components // 4)


def _tier_sizes(n: int) -> Tuple[int, int, int, int]:
    n_ingress = max(1, n // 64)
    n_front = max(1, n // 4)
    n_sink = max(1, n // 16)
    n_back = n - n_ingress - n_front - n_sink
    return n_ingress, n_front, n_back, n_sink


def build_traffic_graph(config: TrafficConfig):
    """Build the static service graph: names, edges and route tables.

    Deterministic for a given config (the only randomness is the seeded
    backend-pool sampling), and independent of shard count -- the graph
    is what gets partitioned, not a partition artifact.
    """
    n_ingress, n_front, n_back, n_sink = _tier_sizes(config.n_components)
    rng = Random(config.seed)

    names: List[str] = []
    names += [f"lb{i}" for i in range(n_ingress)]
    names += [f"fe{i}" for i in range(n_front)]
    names += [f"be{i}" for i in range(n_back)]
    names += [f"sk{i}" for i in range(n_sink)]
    base_front = n_ingress
    base_back = n_ingress + n_front
    base_sink = n_ingress + n_front + n_back

    edges: List[Tuple[str, str]] = []
    # Frontends are dealt to ingresses round-robin.
    fronts_of: List[List[int]] = [[] for _ in range(n_ingress)]
    for f in range(n_front):
        fronts_of[f % n_ingress].append(f)
        edges.append((names[f % n_ingress], names[base_front + f]))
    # Each frontend owns a small sampled pool of backends.
    pool_size = min(n_back, FANOUT + 2)
    pool_of: List[List[int]] = []
    for f in range(n_front):
        pool = sorted(rng.sample(range(n_back), pool_size))
        pool_of.append(pool)
        for b in pool:
            edges.append((names[base_front + f], names[base_back + b]))
    # Backends report to a fixed sink.
    sink_of = [b % n_sink for b in range(n_back)]
    for b in range(n_back):
        edges.append((names[base_back + b], names[base_sink + sink_of[b]]))

    return {
        "names": names,
        "edges": edges,
        "tiers": (n_ingress, n_front, n_back, n_sink),
        "bases": (0, base_front, base_back, base_sink),
        "fronts_of": fronts_of,
        "pool_of": pool_of,
        "sink_of": sink_of,
    }


def _activity(config: TrafficConfig, session: int) -> int:
    heavy = int(config.sessions * HEAVY_SHARE)
    return HEAVY_FACTOR if session < heavy else 1


def _spin(n: int) -> int:
    """Pure-python per-event work, so per-shard busy time is real CPU
    time and the critical-path speedup is honest."""
    x = 0
    for i in range(n):
        x += i
    return x


def run_traffic(
    config: TrafficConfig,
    n_shards: int,
    graph: Optional[Dict] = None,
) -> Dict:
    """Run the traffic model on ``n_shards`` conservative shards.

    The shards run in worker processes when more than one CPU is usable
    (:meth:`ShardedSimulation.run`); ``workers`` in the result says how
    many.  Returns a result dict with the event totals, per-shard busy
    times, the shard-count-invariant ``digest`` (sha256 over every component's
    delivery-sequence fold), the per-component and per-shard event
    counts and the batching counters.  ``graph`` reuses a graph from
    :func:`build_traffic_graph` for ``config``.
    """
    graph = graph or build_traffic_graph(config)
    names: List[str] = graph["names"]
    n_ingress, n_front, n_back, n_sink = graph["tiers"]
    _, base_front, base_back, base_sink = graph["bases"]
    fronts_of, pool_of, sink_of = graph["fronts_of"], graph["pool_of"], graph["sink_of"]

    assignment = partition_graph(names, graph["edges"], n_shards)
    shard_of = [assignment[name] for name in names]

    shards = [Shard(i) for i in range(n_shards)]
    compute_ns, link_ns, fanout = COMPUTE_NS, LINK_NS, FANOUT

    n = len(names)
    folds = [0] * n  # per-component delivery-sequence hash (layout-invariant)
    comp_events = [0] * n
    seqs = [0] * n  # per-source send counters (layout-invariant order)
    spin = config.spin

    def fold(idx: int, src_idx: int, seq: int, t: int) -> None:
        folds[idx] = (
            folds[idx] * _FNV + (t * 1_000_003 ^ (src_idx + 2) * 8_191 ^ seq)
        ) & _MASK64
        comp_events[idx] += 1

    def send(src_idx: int, dst_idx: int, t_send: int, handler: int, *extra) -> None:
        # Stages the call of the table's ``handler`` with ``(dst_idx,
        # src_idx, seq, recv, *extra)``.
        seq = seqs[src_idx]
        seqs[src_idx] = seq + 1
        recv = t_send + link_ns
        env = (
            recv, t_send, names[src_idx], "out", seq,
            handler, dst_idx, src_idx, seq, recv, *extra,
        )
        me, dst = shard_of[src_idx], shard_of[dst_idx]
        (shards[dst].stage if dst == me else shards[dst].post)(env)

    def on_sink(idx: int, src_idx: int, seq: int, t: int) -> None:
        _spin(spin)
        fold(idx, src_idx, seq, t)

    def on_backend(idx: int, src_idx: int, seq: int, t: int) -> None:
        _spin(spin)
        fold(idx, src_idx, seq, t)
        send(idx, base_sink + sink_of[idx - base_back], t + compute_ns, SINK)

    def on_frontend(idx: int, src_idx: int, seq: int, t: int, session: int) -> None:
        _spin(spin)
        fold(idx, src_idx, seq, t)
        pool = pool_of[idx - base_front]
        t_send = t + compute_ns
        for j in range(fanout):
            be = base_back + pool[(session + j) % len(pool)]
            send(idx, be, t_send, BACKEND)

    def on_ingress(idx: int, seq: int, t: int, session: int, tick: int) -> None:
        _spin(spin)
        fold(idx, -1, seq, t)
        fronts = fronts_of[idx]
        fe = base_front + fronts[(session + tick) % len(fronts)]
        send(idx, fe, t + compute_ns, FRONTEND, session)

    # Every hop lands compute + link after its trigger, on any shard.
    sim = ShardedSimulation(
        shards, compute_ns + link_ns, (on_ingress, on_frontend, on_backend, on_sink)
    )

    # Inject every request up front: session s, tick k, copy j -- all
    # requests of a tick enter their ingress at the same instant.
    max_req = HEAVY_FACTOR
    n_requests = 0
    for s in range(config.sessions):
        lb = s % n_ingress
        stage = shards[shard_of[lb]].stage
        iface = f"s{s}"  # one string per session, shared by its requests
        for k in range(config.ticks):
            t0 = (k + 1) * TICK_NS
            for j in range(_activity(config, s)):
                seq = (s * config.ticks + k) * max_req + j
                stage((t0, 0, "client", iface, seq, INGRESS, lb, seq, t0, s, k))
                n_requests += 1

    def export(owned: List[int]) -> List[Tuple[int, int, int]]:
        # A component belongs to its shard.
        mine = set(owned)
        return [(i, folds[i], comp_events[i]) for i in range(n) if shard_of[i] in mine]

    t0 = time.perf_counter()
    sim.run(export=export)
    for _owned, comps in sim.exported:
        for i, f, e in comps:
            folds[i] = f
            comp_events[i] = e
    wall_s = time.perf_counter() - t0
    shard_events = [0] * n_shards
    for i, e in enumerate(comp_events):
        shard_events[shard_of[i]] += e

    events = sum(comp_events)
    expected = n_requests * (2 + 2 * fanout)
    if events != expected:
        raise AssertionError(
            f"traffic run delivered {events} events, expected {expected}"
        )
    blob = struct.pack(f"<{n}Q", *folds) + struct.pack(f"<{n}I", *comp_events)
    digest = hashlib.sha256(blob).hexdigest()

    busy = [shard.busy_s for shard in shards]
    released = sum(s.staging.released for s in shards)
    batches = sum(s.staging.batches for s in shards)
    return {
        "config": config,
        "names": names,
        "assignment": assignment,
        "n_shards": n_shards,
        "components": n,
        "sessions": config.sessions,
        "requests": n_requests,
        "events": events,
        "digest": digest,
        "wall_s": wall_s,
        "workers": sim.workers,
        "sweeps": sim.sweeps,
        "busy_s": sum(busy),
        "shard_busy_s": busy,
        "max_shard_busy_s": max(busy),
        "shard_events": shard_events,
        "released": released,
        "batches": batches,
        "batch_factor": released / batches if batches else 1.0,
        "comp_events": comp_events,
        "makespan_ns": max(s.now for s in shards),
    }
