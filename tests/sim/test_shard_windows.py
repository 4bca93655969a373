"""The coordinator's window bounds and its cached EOTs.

:class:`ShardedSimulation` computes ``bound_i = min_k (eot_k + P[k][i])``
from a shortest-path lookahead table kept current by ``add_link``, and
refreshes ``eot`` between windows only for shards that ran or received
envelopes.  Both are shortcuts over the textbook procedure, so both are
held to it here:

- the table bounds must equal the Chandy/Misra relaxation fixed point
  (:func:`relaxed_bounds`, the coordinator's former code, kept as the
  reference) for random link sets, latencies and idle shards;
- before every window, the cached EOTs must equal a fresh
  ``[s.eot() for s in shards]`` on the traffic workload, and the sweep
  counts must stay those of the relaxation coordinator.  On the process
  driver the fresh ``eot()`` is taken by the worker that owns the
  shard, after it drained what the coordinator sent it.
"""

import os
import random

import pytest

from repro.sim.shard import Shard, ShardedSimulation
from repro.workloads import TrafficConfig, run_traffic

SEEDS = [1, 7, 42]
INF = float("inf")


def relaxed_bounds(n_shards, lookahead, eots):
    """Reference: relax ``E_j = min(eot_j, E_k + lookahead(k, j))`` over
    the cross-shard links to its fixed point, then bound every shard by
    its in-links."""
    cross = [(s, d, la) for (s, d), la in lookahead.items() if s != d]
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


def _random_eots(rng, n_shards):
    # About a third of the shards idle: bounds must route through them.
    return [INF if rng.random() < 0.35 else rng.randrange(0, 5_000) for _ in range(n_shards)]


@pytest.mark.parametrize("seed", SEEDS)
def test_table_bounds_equal_the_relaxation_fixed_point(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n_shards = rng.randrange(2, 9)
        sim = ShardedSimulation([Shard(i) for i in range(n_shards)])
        lookahead = {}
        pairs = [(s, d) for s in range(n_shards) for d in range(n_shards)]
        density = rng.random()
        # Declare links one at a time, some pairs more than once with
        # higher and lower latencies, and compare after every add_link:
        # the table is updated incrementally.
        for _ in range(rng.randrange(1, 3 * len(pairs))):
            src, dst = rng.choice(pairs)
            if rng.random() > density:
                continue
            latency = rng.randrange(1, 300)
            sim.add_link(src, dst, latency)
            lookahead[(src, dst)] = min(latency, lookahead.get((src, dst), latency))
            for _ in range(3):
                eots = _random_eots(rng, n_shards)
                assert sim._bounds(eots) == relaxed_bounds(n_shards, lookahead, eots)
        assert all(sim.lookahead(s, d) == la for (s, d), la in lookahead.items())


@pytest.mark.parametrize("n_shards", range(3, 9))
def test_bound_routes_through_a_chain_of_idle_shards(n_shards):
    # 0 -> 1 -> ... -> n-1, only shard 0 active: the last shard may not
    # run past the message shard 0 could push down the whole chain.
    sim = ShardedSimulation([Shard(i) for i in range(n_shards)])
    lookahead = {}
    for k in range(n_shards - 1):
        sim.add_link(k, k + 1, 10 * (k + 1))
        lookahead[(k, k + 1)] = 10 * (k + 1)
    eots = [100] + [INF] * (n_shards - 1)
    bounds = sim._bounds(eots)
    assert bounds == relaxed_bounds(n_shards, lookahead, eots)
    assert bounds[-1] == 100 + sum(lookahead.values())
    assert bounds[0] == INF  # nothing links back into shard 0
    # A shortcut declared later lowers the whole tail at once.
    sim.add_link(0, n_shards - 1, 5)
    lookahead[(0, n_shards - 1)] = 5
    assert sim._bounds(eots) == relaxed_bounds(n_shards, lookahead, eots)
    assert sim._bounds(eots)[-1] == 105


# -- cached EOTs on the traffic workload ----------------------------------------

#: ``sim.sweeps`` of the run, computed with the relaxation coordinator
#: that refreshed every shard's EOT before every window.
TRAFFIC_1K_SWEEPS = 12


@pytest.fixture
def fresh_eot_guard(monkeypatch):
    """Check, before every window, that the cached EOTs the coordinator
    hands to ``_bounds`` equal freshly computed ones and that every
    inbox is drained.  Returns the list of checked windows."""
    checked = []
    original = ShardedSimulation._bounds

    def guarded(self, eots):
        assert list(eots) == [s.eot() for s in self.shards]
        assert not any(len(s.inbox) for s in self.shards)
        checked.append(self)
        return original(self, eots)

    monkeypatch.setattr(ShardedSimulation, "_bounds", guarded)
    return checked


def test_cached_eots_stay_fresh_on_traffic(fresh_eot_guard, usable_cpus):
    # The guard reads this process's shards, which only the cooperative
    # driver keeps current between windows.
    usable_cpus(1)
    config = TrafficConfig(n_components=1000, seed=1, spin=0)
    result = run_traffic(config, 4)
    assert result["sweeps"] == TRAFFIC_1K_SWEEPS
    assert len(fresh_eot_guard) == TRAFFIC_1K_SWEEPS


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("n_shards", [2, 3, 4])
def test_coordinator_eots_match_the_workers_on_traffic(monkeypatch, usable_cpus, n_shards):
    """Every worker, at every window, checks the coordinator's ``eot``
    of each shard it owns against the shard's own ``eot()`` after the
    drain; a mismatch in a forked worker re-raises here.  At 2 shards a
    worker's shard starts idle and wakes only on the other worker's
    envelopes."""
    usable_cpus(2)
    windows = []
    original = ShardedSimulation._run_window

    def guarded(self, indices, eots, bounds):
        indices = list(indices)
        assert [eots[i] for i in indices] == [self.shards[i].eot() for i in indices]
        assert not any(self.shards[i].inbox for i in indices)
        windows.append(os.getpid())
        return original(self, indices, eots, bounds)

    monkeypatch.setattr(ShardedSimulation, "_run_window", guarded)
    config = TrafficConfig(n_components=1000, seed=1, spin=0)
    result = run_traffic(config, n_shards)
    assert result["workers"] == 2
    assert result["sweeps"] == TRAFFIC_1K_SWEEPS
    # This process ran worker 0's window every time.
    assert windows == [os.getpid()] * TRAFFIC_1K_SWEEPS
