"""Property test for conservative lookahead.

For seeded random workloads whose per-pair link latencies are at least
the run's one lookahead, every message must satisfy

    receive time >= sender clock + link latency >= sender clock + lookahead

The test also checks the two delivery-side halves of the contract: an
envelope's deliver callback runs exactly at its receive time, and no
shard's clock ever has to move backwards (a violation raises
``SimulationError`` inside :meth:`Shard.run_until`, failing the test by
exception).
"""

import random

import pytest

from repro.sim.mailbox import Envelope
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
    sim = ShardedSimulation(shards, lookahead)

    # Record every staged/posted envelope.  The sender's shard index is
    # encoded in env.src by construction below.
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
        env = Envelope(
            recv, send, f"s{me}", "out", next(seq),
            lambda: forward(dst, hops - 1, recv),
        )
        (shards[dst].stage if dst == me else shards[dst].post)(env)

    n_msgs = 60
    for m in range(n_msgs):
        me = m % n_shards
        t = rng.randrange(1, 2_000)
        hops = rng.randrange(1, 8)
        shards[me].stage(
            Envelope(t, 0, "seed", "in", m, lambda me=me, h=hops, t=t: forward(me, h, t))
        )

    sim.run()  # a lookahead violation raises SimulationError in run_until

    forwarded = [(dst, env, cross) for dst, env, cross in records if env.src != "seed"]
    assert forwarded, "workload generated no forwarded messages"
    assert any(cross for _, _, cross in forwarded), "no cross-shard traffic"
    for dst, env, _cross in forwarded:
        src = int(env.src[1:])
        assert env.recv_time >= env.send_time + latency[(src, dst)] >= (
            env.send_time + lookahead
        ), (
            f"envelope {env.src}->shard{dst} recv {env.recv_time} undercuts "
            f"sender clock {env.send_time} + latency {latency[(src, dst)]}"
        )
    # Everything injected was eventually delivered.
    assert len(delivered) == n_msgs + len(forwarded)
