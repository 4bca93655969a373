"""Unit tests for the sharded conservative simulation layer.

Covers the reference engine's deadlock check, the partitioning helpers,
the envelope/inbox/staging machinery, and the coordinator itself
(delivery-order invariance across shard counts, its one lookahead).
"""

import time

import pytest

from repro.sim import Kernel
from repro.sim.errors import SchedulingError, SimulationError
from repro.sim.mailbox import Staging
from repro.sim.resources import Channel
from repro.sim.shard import (
    Shard,
    ShardedSimulation,
    partition_graph,
    shard_core_blocks,
)

from reference_process import DeadlockError, Process, run


# -- deadlock ------------------------------------------------------------------


def _blocked_process(kernel):
    chan = Channel(kernel, name="never")

    def body():
        yield from chan.get()

    return Process(kernel, body(), name="blocked"), chan


def test_kernel_deadlock_check_default_raises():
    # The kernel returns on a drained queue; the reference engine, which
    # knows its processes, reports the one still blocked.
    kernel = Kernel()
    _blocked_process(kernel)
    assert kernel.run() == 0
    with pytest.raises(DeadlockError, match="1 process\\(es\\) still alive"):
        run(kernel)


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


def noop(*args):
    pass


def test_envelope_rejects_receive_before_send():
    shard = Shard(0)
    ShardedSimulation([shard], 100, (noop,))
    for intake in (shard.stage, shard.post):
        with pytest.raises(ValueError, match="recv_time 5 precedes send_time 9"):
            intake((5, 9, "a", "out", 0, 0))
    assert len(shard.staging) == 0 and shard.inbox == []


@pytest.mark.parametrize("index", (-1, 2, 7))
def test_handler_index_outside_the_table_is_refused(index):
    shards = [Shard(0), Shard(1)]
    ShardedSimulation(shards, 100, (noop, noop))
    for intake in (shards[0].stage, shards[1].post):
        with pytest.raises(SimulationError, match=f"handler index {index} is not in the run's"):
            intake((10, 0, "a", "out", 0, index))
    assert len(shards[0].staging) == 0 and shards[1].inbox == []


def test_a_shard_outside_a_simulation_has_no_handlers():
    with pytest.raises(SimulationError, match="handler index 0 .* table of 0"):
        Shard(0).stage((10, 0, "a", "out", 0, 0))


def test_staging_releases_in_key_order_below_horizon():
    staging = Staging()
    order = []
    # Same receive time, distinct (send, src, iface, seq) tiebreakers,
    # pushed in scrambled order.
    scrambled = [
        (10, 4, "b", "out", 0, 0, "b4"),
        (10, 2, "a", "out", 1, 0, "a2.1"),
        (12, 0, "a", "out", 2, 0, "late"),
        (10, 2, "a", "out", 0, 0, "a2.0"),
        (10, 2, "a", "in", 5, 0, "a2.in"),
    ]
    for env in scrambled:
        staging.push(env)
    released = []
    staging.release_below(
        12, lambda _t, handler, *args: released.append((handler, args)), (order.append,)
    )
    for handler, args in released:
        handler(*args)
    # Key order: (recv, send, src, iface, seq); recv=12 stays staged.
    assert order == ["a2.in", "a2.0", "a2.1", "b4"]
    assert len(staging) == 1


def test_push_many_matches_individual_pushes():
    envs = [(i % 7 + 1, 0, f"c{i % 3}", "out", i, 0, i) for i in range(40)]
    one, many = Staging(), Staging()
    for env in envs:
        one.push(env)
    assert many.push_many(envs) == 40
    released_one, released_many = [], []
    one.release_below(100, lambda t, h, *args: released_one.append((t, args)), (noop,))
    many.release_below(100, lambda t, h, *args: released_many.append((t, args)), (noop,))
    assert released_one == released_many  # same envelopes, same key order
    assert many.push_many([]) == 0


def test_release_batched_groups_by_recv_time_in_key_order():
    staging = Staging()
    order = []

    def mk(recv, send, src, seq, tag):
        return (recv, send, src, "out", seq, 0, tag)

    for env in (
        mk(10, 2, "b", 0, "b0"),
        mk(10, 1, "a", 0, "a0"),
        mk(20, 3, "c", 1, "c1"),
        mk(10, 2, "b", 1, "b1"),
        mk(30, 0, "z", 0, "late"),
    ):
        staging.push(env)
    scheduled = []
    n = staging.release_batched(
        25, lambda t, cb, *args: scheduled.append((t, cb, args)), (order.append,)
    )
    assert n == 4
    # One delivery per *distinct* receive time below the horizon.
    assert [t for t, _, _ in scheduled] == [10, 20]
    for _t, cb, args in scheduled:
        cb(*args)
    assert order == ["a0", "b0", "b1", "c1"]  # key order inside the group
    assert staging.released == 4
    assert staging.batches == 2
    assert len(staging) == 1


# -- coordinator ---------------------------------------------------------------


def _pipeline_run(n_shards: int):
    """A 4-chain x 3-stage pipeline on the raw shard layer; returns the
    per-stage-component delivery log."""
    n_chains, n_stages = 4, 3
    link_ns, compute_ns = 100, 700
    shards = [Shard(i) for i in range(n_shards)]
    shard_of = {
        (c, s): (c + s) % n_shards for c in range(n_chains) for s in range(n_stages)
    }

    log = {(c, s): [] for c in range(n_chains) for s in range(n_stages)}

    def handler(c, s, item, t):
        me = shard_of[(c, s)]
        assert shards[me].now == t  # delivered exactly at recv time
        log[(c, s)].append((t, item))
        if s + 1 < n_stages:
            dst = shard_of[(c, s + 1)]
            send = t + compute_ns
            env = (send + link_ns, send, f"c{c}", f"s{s}", item, 0, c, s + 1, item, send + link_ns)
            (shards[dst].stage if dst == me else shards[dst].post)(env)

    sim = ShardedSimulation(shards, compute_ns + link_ns, (handler,))
    for c in range(n_chains):
        for item in range(5):
            t = (item + 1) * 400 + c * 7
            shards[shard_of[(c, 0)]].stage((t, 0, "", f"c{c}", item, 0, c, 0, item, t))
    sweeps = sim.run()
    assert sweeps >= 1
    return log


def test_delivery_log_invariant_across_shard_counts():
    reference = _pipeline_run(1)
    assert all(len(v) == 5 for v in reference.values())
    for n_shards in (2, 3, 4):
        assert _pipeline_run(n_shards) == reference


def test_pipeline_batched_release_matches_per_envelope(monkeypatch):
    """The batching oracle on the pipeline harness: release_batched and
    the reference release_below give identical delivery logs."""
    batched = [_pipeline_run(n_shards) for n_shards in (1, 3)]
    monkeypatch.setattr(Staging, "release_batched", Staging.release_below)
    assert [_pipeline_run(n_shards) for n_shards in (1, 3)] == batched


def _chaotic_run(n_shards: int, seed: int):
    """A message-storm workload with hash-derived (layout-invariant)
    routing and clustered timestamps, so batched release really forms
    multi-envelope groups.  Returns the per-component delivery log."""
    n_comp, n_msgs, hops = 10, 30, 3
    compute_ns, link_ns = 500, 100
    shards = [Shard(i) for i in range(n_shards)]
    shard_of = [i % n_shards for i in range(n_comp)]
    log = {i: [] for i in range(n_comp)}
    seqs = [0] * n_comp

    def handler(dst, src, seq, t, ttl):
        me = shard_of[dst]
        assert shards[me].now == t
        log[dst].append((t, src, seq))
        if ttl:
            nxt = (dst * 31 + seq * 17 + t + seed) % n_comp
            q = seqs[dst]
            seqs[dst] = q + 1
            send = t + compute_ns
            recv = send + link_ns
            env = (recv, send, f"c{dst}", "out", q, 0, nxt, dst, q, recv, ttl - 1)
            (shards[shard_of[nxt]].stage if shard_of[nxt] == me
             else shards[shard_of[nxt]].post)(env)

    sim = ShardedSimulation(shards, compute_ns + link_ns, (handler,))
    for i in range(n_msgs):
        dst = (i * 7 + seed) % n_comp
        t = 1_000 * (i % 5 + 1)  # clustered entry times -> shared recv times
        shards[shard_of[dst]].stage((t, 0, "src", f"m{i}", i, 0, dst, -1, i, t, hops))
    sim.run()
    assert sum(len(v) for v in log.values()) == n_msgs * (hops + 1)
    return log


@pytest.mark.parametrize("seed", (1, 7, 42))
def test_batched_release_equivalent_to_per_envelope(monkeypatch, seed):
    """Seeds 1/7/42 (the chaos-campaign set): batched and per-envelope
    release produce identical per-component delivery sequences, at every
    shard count, and both match across shard counts."""
    reference = _chaotic_run(1, seed)
    for n_shards in (1, 2, 4):
        assert _chaotic_run(n_shards, seed) == reference
    monkeypatch.setattr(Staging, "release_batched", Staging.release_below)
    for n_shards in (1, 2, 4):
        assert _chaotic_run(n_shards, seed) == reference


def test_idle_shard_with_pending_cross_shard_input_is_not_deadlocked():
    """Shard 1 has nothing staged; its only input is what shard 0 sends
    it at t=50.  The mailbox drain must surface the cross-shard
    envelope, so the run ends with it delivered at its receive time."""
    shards = [Shard(0), Shard(1)]
    got = []

    def produce():
        shards[1].post((150, 50, "producer", "out", 0, 1))

    sim = ShardedSimulation(shards, 100, (produce, lambda: got.append(shards[1].now)))
    shards[0].stage((50, 0, "client", "in", 0, 0))
    sim.run()
    assert got == [150]


def test_delivery_in_a_shards_past_raises():
    # The cooperative twin of the process driver's test: the run
    # promises 1 000 ns of lookahead and shard 0 then sends with 10, so
    # shard 1 has run past the arrival.
    shards = [Shard(0), Shard(1)]

    def late_send():
        shards[1].post((20, 10, "a", "out", 0, 1))

    sim = ShardedSimulation(shards, 1_000, (late_send, noop))
    shards[0].stage((10, 0, "a", "in", 0, 0))
    shards[1].stage((500, 0, "b", "in", 0, 1))
    with pytest.raises(SchedulingError, match="cannot schedule in the past: 20 < 500"):
        sim.run()
    assert sim.workers == 1


def test_unlinked_shards_run_independently():
    # Nothing crosses: two shards with staged work each run their own.
    shards = [Shard(0), Shard(1)]
    hits = []
    sim = ShardedSimulation(shards, 100, (hits.append,))
    shards[0].stage((10, 0, "a", "out", 0, 0, 0))
    shards[1].stage((20, 0, "b", "out", 0, 0, 1))
    sim.run()
    assert sorted(hits) == [0, 1]


def test_busy_time_counts_cpu_not_wall_time():
    # A handler that sleeps 50 ms keeps its shard waiting, not busy: the
    # critical-path speedup must not credit a shard for time the host
    # spent running something else.
    shard = Shard(0)
    sim = ShardedSimulation([shard], 100, (time.sleep,))
    shard.stage((10, 0, "a", "in", 0, 0, 0.05))
    sim.run()
    assert shard.busy_s < 0.01


def test_shards_must_be_indexed_in_order():
    with pytest.raises(ValueError):
        ShardedSimulation([Shard(1), Shard(0)], 100, ())
    with pytest.raises(ValueError):
        ShardedSimulation([], 100, ())


@pytest.mark.parametrize("lookahead_ns", (0, -5))
def test_lookahead_below_one_ns_is_refused(lookahead_ns):
    with pytest.raises(ValueError, match="lookahead must be at least 1 ns"):
        ShardedSimulation([Shard(0), Shard(1)], lookahead_ns, ())


def test_quiescent_clocks_align_to_global_max():
    shards = [Shard(0), Shard(1)]
    sim = ShardedSimulation(shards, 100, (noop,))
    shards[0].stage((5_000, 0, "a", "out", 0, 0))
    shards[1].stage((7, 0, "b", "out", 0, 0))
    sim.run()
    assert shards[0].now == shards[1].now == 5_000
