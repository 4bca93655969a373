"""Unit tests for the sharded conservative simulation layer.

Covers the kernel hook the shard coordinator relies on
(``deadlock_check``), the partitioning helpers, the
envelope/inbox/staging machinery, and the coordinator itself
(delivery-order invariance across shard counts, deadlock semantics).
"""

import pytest

from repro.sim import Kernel
from repro.sim.errors import DeadlockError
from repro.sim.mailbox import Envelope, Staging
from repro.sim.resources import Channel
from repro.sim.shard import (
    Shard,
    ShardedSimulation,
    partition_graph,
    shard_core_blocks,
)

from reference_process import Process


# -- kernel hooks --------------------------------------------------------------


def _blocked_process(kernel):
    chan = Channel(kernel, name="never")

    def body():
        yield from chan.get()

    return Process(kernel, body(), name="blocked"), chan


def test_kernel_deadlock_check_default_raises():
    kernel = Kernel()
    _blocked_process(kernel)
    with pytest.raises(DeadlockError):
        kernel.run()


def test_kernel_deadlock_check_disabled_returns():
    kernel = Kernel()
    _blocked_process(kernel)
    kernel.deadlock_check = False
    kernel.run()  # idle is not an error: the coordinator decides
    assert kernel._live_processes == 1


# -- partitioning helpers ------------------------------------------------------


def test_shard_core_blocks_contiguous_and_balanced():
    assert shard_core_blocks(16, 4) == [
        [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]
    ]
    assert shard_core_blocks(10, 3) == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    with pytest.raises(ValueError):
        shard_core_blocks(2, 3)
    with pytest.raises(ValueError):
        shard_core_blocks(4, 0)


def test_partition_graph_balance_and_determinism():
    names = [f"c{i}" for i in range(8)]
    edges = [(f"c{i}", f"c{i + 1}") for i in range(7)]  # one chain
    first = partition_graph(names, edges, 2)
    assert first == partition_graph(names, edges, 2)  # deterministic
    sizes = [sum(1 for s in first.values() if s == k) for k in range(2)]
    assert sizes == [4, 4]
    # A chain split in two has exactly one cut edge.
    assert len([(a, b) for a, b in edges if first[a] != first[b]]) == 1


def test_partition_graph_affinity_wins():
    names = ["a", "b", "c", "d"]
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    assignment = partition_graph(names, edges, 2, affinity={"a": 1, "d": 0})
    assert assignment["a"] == 1
    assert assignment["d"] == 0


def test_partition_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_graph(["a", "a"], [], 2)
    with pytest.raises(ValueError):
        partition_graph(["a"], [("a", "zz")], 1)
    with pytest.raises(ValueError):
        partition_graph(["a"], [], 2, affinity={"a": 5})
    with pytest.raises(ValueError):
        partition_graph(["a"], [], 2, affinity={"zz": 0})


def test_partition_graph_rejects_more_shards_than_components():
    with pytest.raises(ValueError, match="empty shards"):
        partition_graph(["a", "b"], [], 3)


def test_partition_graph_deterministic_under_affinity_pins():
    names = [f"c{i}" for i in range(9)]
    edges = [(f"c{i}", f"c{i + 1}") for i in range(8)]
    affinity = {"c0": 2, "c8": 0}
    first = partition_graph(names, edges, 3, affinity=affinity)
    for _ in range(3):
        again = partition_graph(names, edges, 3, affinity=affinity)
        assert again == first
    assert first["c0"] == 2 and first["c8"] == 0
    sizes = [sum(1 for s in first.values() if s == k) for k in range(3)]
    assert all(n >= 1 for n in sizes)


# -- envelopes / inbox / staging -----------------------------------------------


def test_envelope_rejects_receive_before_send():
    with pytest.raises(ValueError):
        Envelope(5, 9, "a", "out", 0, lambda: None)


def test_staging_releases_in_key_order_below_horizon():
    staging = Staging()
    order = []
    # Same receive time, distinct (send, src, iface, seq) tiebreakers,
    # pushed in scrambled order.
    scrambled = [
        Envelope(10, 4, "b", "out", 0, lambda: order.append("b4")),
        Envelope(10, 2, "a", "out", 1, lambda: order.append("a2.1")),
        Envelope(12, 0, "a", "out", 2, lambda: order.append("late")),
        Envelope(10, 2, "a", "out", 0, lambda: order.append("a2.0")),
        Envelope(10, 2, "a", "in", 5, lambda: order.append("a2.in")),
    ]
    for env in scrambled:
        staging.push(env)
    released = []
    staging.release_below(12, lambda _t, deliver: released.append(deliver))
    for deliver in released:
        deliver()
    # Key order: (recv, send, src, iface, seq); recv=12 stays staged.
    assert order == ["a2.in", "a2.0", "a2.1", "b4"]
    assert len(staging) == 1


def test_push_many_matches_individual_pushes():
    envs = [
        Envelope(i % 7 + 1, 0, f"c{i % 3}", "out", i, lambda: None) for i in range(40)
    ]
    one, many = Staging(), Staging()
    for env in envs:
        one.push(env)
    assert many.push_many(envs) == 40
    released_one, released_many = [], []
    one.release_below(100, lambda t, cb: released_one.append((t, cb)))
    many.release_below(100, lambda t, cb: released_many.append((t, cb)))
    assert released_one == released_many  # same envelopes, same key order
    assert many.push_many([]) == 0


def test_release_batched_groups_by_recv_time_in_key_order():
    staging = Staging()
    order = []

    def mk(recv, send, src, seq, tag):
        return Envelope(recv, send, src, "out", seq, lambda: order.append(tag))

    for env in (
        mk(10, 2, "b", 0, "b0"),
        mk(10, 1, "a", 0, "a0"),
        mk(20, 3, "c", 1, "c1"),
        mk(10, 2, "b", 1, "b1"),
        mk(30, 0, "z", 0, "late"),
    ):
        staging.push(env)
    scheduled = []
    n = staging.release_batched(25, lambda t, cb: scheduled.append((t, cb)))
    assert n == 4
    # One callback per *distinct* receive time below the horizon.
    assert [t for t, _ in scheduled] == [10, 20]
    for _t, cb in scheduled:
        cb()
    assert order == ["a0", "b0", "b1", "c1"]  # key order inside the group
    assert staging.released == 4
    assert staging.batches == 2
    assert len(staging) == 1


# -- coordinator ---------------------------------------------------------------


def _pipeline_run(n_shards: int, batch: bool = True):
    """A 4-chain x 3-stage pipeline on the raw shard layer; returns the
    per-stage-component delivery log."""
    n_chains, n_stages = 4, 3
    link_ns, compute_ns = 100, 700
    shards = [Shard(i) for i in range(n_shards)]
    for shard in shards:
        shard.batch_release = batch
    sim = ShardedSimulation(shards)
    shard_of = {
        (c, s): (c + s) % n_shards for c in range(n_chains) for s in range(n_stages)
    }
    for c in range(n_chains):
        for s in range(n_stages - 1):
            sim.add_link(shard_of[(c, s)], shard_of[(c, s + 1)], link_ns)
    for k in range(n_shards):
        sim.add_link(k, k, compute_ns + link_ns)

    log = {(c, s): [] for c in range(n_chains) for s in range(n_stages)}

    def handler(c, s, item, t):
        me = shard_of[(c, s)]
        assert shards[me].kernel.now == t  # delivered exactly at recv time
        log[(c, s)].append((t, item))
        if s + 1 < n_stages:
            dst = shard_of[(c, s + 1)]
            send = t + compute_ns
            env = Envelope(
                send + link_ns, send, f"c{c}", f"s{s}", item,
                lambda: handler(c, s + 1, item, send + link_ns),
            )
            (shards[dst].stage if dst == me else shards[dst].post)(env)

    for c in range(n_chains):
        for item in range(5):
            t = (item + 1) * 400 + c * 7
            shards[shard_of[(c, 0)]].stage(
                Envelope(t, 0, "", f"c{c}", item, lambda c=c, i=item, t=t: handler(c, 0, i, t))
            )
    sweeps = sim.run()
    assert sweeps >= 1
    return log


def test_delivery_log_invariant_across_shard_counts():
    reference = _pipeline_run(1)
    assert all(len(v) == 5 for v in reference.values())
    for n_shards in (2, 3, 4):
        assert _pipeline_run(n_shards) == reference


def test_pipeline_batched_release_matches_per_envelope():
    """The batching tentpole's oracle on the pipeline harness:
    Shard.batch_release toggles between release_batched and the
    reference release_below; the delivery logs must be identical."""
    for n_shards in (1, 3):
        assert _pipeline_run(n_shards, batch=True) == _pipeline_run(n_shards, batch=False)


def _chaotic_run(n_shards: int, seed: int, batch: bool):
    """A message-storm workload with hash-derived (layout-invariant)
    routing and clustered timestamps, so batched release really forms
    multi-envelope groups.  Returns the per-component delivery log."""
    n_comp, n_msgs, hops = 10, 30, 3
    compute_ns, link_ns = 500, 100
    shards = [Shard(i) for i in range(n_shards)]
    for shard in shards:
        shard.batch_release = batch
    sim = ShardedSimulation(shards)
    for a in range(n_shards):
        for b in range(n_shards):
            sim.add_link(a, b, compute_ns + link_ns)
    shard_of = [i % n_shards for i in range(n_comp)]
    log = {i: [] for i in range(n_comp)}
    seqs = [0] * n_comp

    def handler(dst, src, seq, t, ttl):
        me = shard_of[dst]
        assert shards[me].kernel.now == t
        log[dst].append((t, src, seq))
        if ttl:
            nxt = (dst * 31 + seq * 17 + t + seed) % n_comp
            q = seqs[dst]
            seqs[dst] = q + 1
            send = t + compute_ns
            env = Envelope(
                send + link_ns, send, f"c{dst}", "out", q,
                lambda: handler(nxt, dst, q, send + link_ns, ttl - 1),
            )
            (shards[shard_of[nxt]].stage if shard_of[nxt] == me
             else shards[shard_of[nxt]].post)(env)

    for i in range(n_msgs):
        dst = (i * 7 + seed) % n_comp
        t = 1_000 * (i % 5 + 1)  # clustered entry times -> shared recv times
        shards[shard_of[dst]].stage(
            Envelope(t, 0, "src", f"m{i}", i,
                     lambda d=dst, i=i, t=t: handler(d, -1, i, t, hops))
        )
    sim.run()
    assert sum(len(v) for v in log.values()) == n_msgs * (hops + 1)
    return log


@pytest.mark.parametrize("seed", (1, 7, 42))
def test_batched_release_equivalent_to_per_envelope(seed):
    """Seeds 1/7/42 (the chaos-campaign set): batched and per-envelope
    release produce identical per-component delivery sequences, at every
    shard count, and both match across shard counts."""
    reference = _chaotic_run(1, seed, batch=True)
    for n_shards in (1, 2, 4):
        assert _chaotic_run(n_shards, seed, batch=True) == reference
        assert _chaotic_run(n_shards, seed, batch=False) == reference


def test_true_deadlock_is_reported_by_the_coordinator():
    shards = [Shard(0), Shard(1)]
    sim = ShardedSimulation(shards)
    sim.add_link(0, 1, 100)
    _blocked_process(shards[1].kernel)  # waits forever, nobody sends
    with pytest.raises(DeadlockError, match="process\\(es\\) still alive"):
        sim.run()


def test_idle_shard_with_pending_cross_shard_input_is_not_deadlocked():
    """The satellite-6 regression: shard 1 idles on a channel whose only
    producer lives on shard 0.  The mailbox drain must surface the
    cross-shard envelope before any deadlock verdict."""
    shards = [Shard(0), Shard(1)]
    sim = ShardedSimulation(shards)
    sim.add_link(0, 1, 100)

    chan = Channel(shards[1].kernel, name="cross")

    def consumer():
        msg = yield from chan.get()
        assert msg == "payload"

    proc = Process(shards[1].kernel, consumer(), name="consumer")
    # Shard 0 sends at t=50; shard 1 has nothing local at all.
    shards[1].post(Envelope(150, 50, "producer", "out", 0, lambda: chan.put("payload")))
    shards[0].kernel.schedule(50, lambda: None)
    sim.run()
    assert not proc._alive


def test_unlinked_shards_run_independently():
    # No links at all: two shards with staged work can make progress
    # (bounds are infinite), so this must still complete.
    shards = [Shard(0), Shard(1)]
    sim = ShardedSimulation(shards)
    hits = []
    shards[0].stage(Envelope(10, 0, "a", "out", 0, lambda: hits.append(0)))
    shards[1].stage(Envelope(20, 0, "b", "out", 0, lambda: hits.append(1)))
    sim.run()
    assert sorted(hits) == [0, 1]


def test_shards_must_be_indexed_in_order():
    with pytest.raises(ValueError):
        ShardedSimulation([Shard(1), Shard(0)])
    with pytest.raises(ValueError):
        ShardedSimulation([])


def test_quiescent_clocks_align_to_global_max():
    shards = [Shard(0), Shard(1)]
    sim = ShardedSimulation(shards)
    sim.add_link(0, 1, 100)
    shards[0].kernel.schedule(5_000, lambda: None)
    shards[1].kernel.schedule(7, lambda: None)
    sim.run()
    assert shards[0].kernel.now == shards[1].kernel.now == 5_000
