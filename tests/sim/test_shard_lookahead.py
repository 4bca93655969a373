"""Property test for conservative lookahead.

For seeded random workloads whose per-pair link latencies are at least
the run's one lookahead, every message must satisfy

    receive time >= sender clock + link latency >= sender clock + lookahead

The test also checks the two delivery-side halves of the contract: an
envelope's handler runs exactly at its receive time, and no
shard's clock ever has to move backwards (a violation raises
``SimulationError`` inside :meth:`Shard.run_until`, failing the test by
exception).
"""

import random

import pytest

from repro.sim.shard import Shard, ShardedSimulation

SEEDS = [1, 7, 42]


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_shard_receive_respects_lookahead(monkeypatch, seed):
    rng = random.Random(seed)
    n_shards = rng.choice([2, 3, 4])
    shards = [Shard(i) for i in range(n_shards)]

    # Random per-pair latencies; the least of them is the lookahead.
    latency = {}
    for src in range(n_shards):
        for dst in range(n_shards):
            latency[(src, dst)] = rng.randrange(50, 301)
    lookahead = min(latency.values())

    # Record every staged/posted envelope.  The sender's shard index is
    # encoded in its src field by construction below.
    records = []

    def recording(intake, cross):
        def record(shard, env):
            records.append((shard.index, env, cross))
            intake(shard, env)

        return record

    monkeypatch.setattr(Shard, "stage", recording(Shard.stage, False))
    monkeypatch.setattr(Shard, "post", recording(Shard.post, True))

    seq = iter(range(10**9))
    delivered = []

    def forward(me, hops, t):
        # Deliver exactly at the receive time, on the owning shard.
        assert shards[me].now == t
        delivered.append((me, t))
        if hops == 0:
            return
        dst = rng.randrange(n_shards)
        send = t  # sender clock at the moment of sending
        recv = send + latency[(me, dst)]
        env = (recv, send, f"s{me}", "out", next(seq), 0, dst, hops - 1, recv)
        (shards[dst].stage if dst == me else shards[dst].post)(env)

    sim = ShardedSimulation(shards, lookahead, (forward,))

    n_msgs = 60
    for m in range(n_msgs):
        me = m % n_shards
        t = rng.randrange(1, 2_000)
        hops = rng.randrange(1, 8)
        shards[me].stage((t, 0, "seed", "in", m, 0, me, hops, t))

    sim.run()  # a lookahead violation raises SimulationError in run_until

    forwarded = [(dst, env, cross) for dst, env, cross in records if env[2] != "seed"]
    assert forwarded, "workload generated no forwarded messages"
    assert any(cross for _, _, cross in forwarded), "no cross-shard traffic"
    for dst, (recv, send, src_name, *_), _cross in forwarded:
        src = int(src_name[1:])
        assert recv >= send + latency[(src, dst)] >= send + lookahead, (
            f"envelope {src_name}->shard{dst} recv {recv} undercuts "
            f"sender clock {send} + latency {latency[(src, dst)]}"
        )
    # Everything injected was eventually delivered.
    assert len(delivered) == n_msgs + len(forwarded)
