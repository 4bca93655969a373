"""The coordinator's windows: one bound, ``min(eot) + lookahead``.

:class:`ShardedSimulation` runs every shard below the least ``eot`` plus
the run's one lookahead.  These tests hold that bound to what it must
guarantee and pin what it costs:

- it never exceeds the Chandy/Misra relaxation fixed point
  (:func:`relaxed_bounds`, the coordinator's per-link reference) for
  any link set whose latencies are at least the lookahead, and equals
  that fixed point's least bound when every link is exactly one
  lookahead;
- a message pushed down a chain of idle shards, each hop exactly one
  lookahead, lands on time at every shard: no shard ran past it;
- the window and release counts of the traffic workload are literals,
  at seeds 1/7/42 and 1-4 shards, so a change to how windows are cut
  shows up as a count change;
- on the process driver, every worker's window starts with its
  inboxes drained, and the bound the coordinator sends is one
  lookahead past a least ``eot`` no shard of the worker undercuts.
"""

import os
import random

import pytest

from repro.sim.shard import Shard, ShardedSimulation
from repro.workloads import TrafficConfig, run_traffic

SEEDS = [1, 7, 42]
INF = float("inf")


def relaxed_bounds(n_shards, latency, eots):
    """Reference: relax ``E_j = min(eot_j, E_k + latency(k, j))`` over
    the cross-shard links to its fixed point, then bound every shard by
    its in-links."""
    cross = [(s, d, la) for (s, d), la in latency.items() if s != d]
    eots = list(eots)
    changed = True
    while changed:
        changed = False
        for src, dst, la in cross:
            if eots[src] + la < eots[dst]:
                eots[dst] = eots[src] + la
                changed = True
    bounds = [INF] * n_shards
    for src, dst, la in cross:
        if eots[src] + la < bounds[dst]:
            bounds[dst] = eots[src] + la
    return bounds


@pytest.mark.parametrize("seed", SEEDS)
def test_one_bound_never_exceeds_the_relaxation_fixed_point(seed):
    rng = random.Random(seed)
    for _ in range(200):
        n_shards = rng.randrange(2, 9)
        lookahead = rng.randrange(1, 300)
        sim = ShardedSimulation([Shard(i) for i in range(n_shards)], lookahead, ())
        # About a third of the shards idle: bounds route through them.
        eots = [INF if rng.random() < 0.35 else rng.randrange(0, 5_000) for _ in range(n_shards)]
        if min(eots) == INF:
            continue
        bound = sim._bound(min(eots))
        assert bound == min(eots) + lookahead
        pairs = [(s, d) for s in range(n_shards) for d in range(n_shards) if s != d]
        density = rng.random()
        latency = {
            pair: rng.randrange(lookahead, lookahead + 300)
            for pair in pairs
            if rng.random() < density
        }
        assert all(bound <= b for b in relaxed_bounds(n_shards, latency, eots))
        tight = {pair: lookahead for pair in pairs}
        assert min(relaxed_bounds(n_shards, tight, eots)) == bound


@pytest.mark.parametrize("n_shards", range(3, 9))
def test_bound_routes_through_a_chain_of_idle_shards(n_shards):
    # 0 -> 1 -> ... -> n-1, only shard 0 active: each shard forwards the
    # token one lookahead later.  A shard that ran past the token would
    # fail its delivery with "cannot schedule in the past".
    lookahead = 100
    shards = [Shard(i) for i in range(n_shards)]
    arrivals = []

    def hop(me):
        now = shards[me].now
        arrivals.append((me, now))
        if me + 1 < n_shards:
            shards[me + 1].post((now + lookahead, now, f"s{me}", "out", 0, 0, me + 1))

    # Late work on the last shard: it may not run there before the token.
    tail = []
    sim = ShardedSimulation(shards, lookahead, (hop, tail.append))
    shards[-1].stage((10_000, 0, "late", "in", 0, 1, "late"))
    shards[0].stage((50, 0, "token", "in", 0, 0, 0))
    sweeps = sim.run()
    assert arrivals == [(k, 50 + k * lookahead) for k in range(n_shards)]
    assert tail == ["late"]
    # One window per hop, then one for the late work.
    assert sweeps == n_shards + 1


# -- the traffic workload -------------------------------------------------------

#: ``(sweeps, batches)`` of the 1k-component traffic run per seed and
#: shard count, cooperative driver.  One shard has no bound, so it runs
#: in one window.
TRAFFIC_1K_COUNTS = {
    (1, 1): (1, 12), (1, 2): (12, 21), (1, 3): (12, 33), (1, 4): (12, 36),
    (7, 1): (1, 12), (7, 2): (12, 24), (7, 3): (12, 27), (7, 4): (12, 39),
    (42, 1): (1, 12), (42, 2): (12, 21), (42, 3): (12, 27), (42, 4): (12, 36),
}


@pytest.mark.parametrize("seed, n_shards", sorted(TRAFFIC_1K_COUNTS))
def test_traffic_1k_window_counts_are_pinned(usable_cpus, seed, n_shards):
    usable_cpus(1)
    result = run_traffic(TrafficConfig(n_components=1000, seed=seed, spin=0), n_shards)
    assert (result["sweeps"], result["batches"]) == TRAFFIC_1K_COUNTS[(seed, n_shards)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("n_shards", [2, 3, 4])
def test_coordinator_eots_match_the_workers_on_traffic(monkeypatch, usable_cpus, n_shards):
    """Every worker, at every window, checks the bound it is sent
    against its own shards after the drain: no inbox left, and no shard
    with an ``eot`` below ``bound - lookahead``, the least ``eot`` the
    coordinator holds.  A failed check in a forked worker re-raises
    here."""
    usable_cpus(2)
    windows = []
    original = ShardedSimulation._run_window

    def guarded(self, indices, bound):
        indices = list(indices)
        assert not any(self.shards[i].inbox for i in indices)
        assert min(self.shards[i].eot() for i in indices) >= bound - self.lookahead
        windows.append(os.getpid())
        return original(self, indices, bound)

    monkeypatch.setattr(ShardedSimulation, "_run_window", guarded)
    config = TrafficConfig(n_components=1000, seed=1, spin=0)
    result = run_traffic(config, n_shards)
    assert result["workers"] == 2
    assert result["sweeps"] == TRAFFIC_1K_COUNTS[(1, n_shards)][0]
    # This process ran worker 0's window every time.
    assert windows == [os.getpid()] * result["sweeps"]
