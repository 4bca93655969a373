"""The process driver of :class:`ShardedSimulation`.

Every test forces two worker processes through the usable-CPU seam
(the ``usable_cpus`` fixture), so it runs the forked driver on any
host.  Shard *i* belongs to worker ``i % 2``: shard 0 runs in this
process, shard 1 in the forked worker.

The driver must fail the way the cooperative one does (an error inside
a worker re-raises here with its type and message, and no worker
process outlives the run), leave this process's shards holding the
merged state, and change nothing a run computes.
"""

import os

import pytest

from repro.sim.errors import SchedulingError, SimulationError
from repro.sim.shard import Shard, ShardedSimulation
from repro.workloads import TrafficConfig, run_traffic

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

SEEDS = [1, 7, 42]

#: What a handler index outside the table raises, here or in a worker.
UNLISTED = "handler index 5 is not in the run's handler table"


@pytest.fixture
def workers(usable_cpus):
    usable_cpus(2)
    return usable_cpus


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def noop(*args):
    pass


def export_nothing(mine):
    """An ``export`` that opts a run into worker processes and reads
    nothing back."""
    return None


def linked_pair(handlers=(noop,)):
    shards = [Shard(0), Shard(1)]
    return shards, ShardedSimulation(shards, 1_000, handlers)


# -- failures ------------------------------------------------------------------


def test_duplicate_key_in_a_worker_reraises_here(workers):
    shards, sim = linked_pair()
    shards[0].stage((10, 0, "a", "out", 0, 0))
    # Two sends with one key on the worker's shard: caught at release.
    shards[1].stage((20, 0, "b", "out", 7, 0, 1))
    shards[1].stage((20, 0, "b", "out", 7, 0, 2))
    with pytest.raises(ValueError, match=r"duplicate envelope key \(20, 0, 'b', 'out', 7\)"):
        sim.run(export=export_nothing)
    assert sim.workers == 2
    assert_no_child_left()


def test_delivery_in_a_workers_past_reraises_here(workers):
    # The run promises 1 000 ns of lookahead and shard 0 then sends
    # with 10: shard 1 (in the worker) has run past the arrival.
    shards = [Shard(0), Shard(1)]

    def late_send():
        shards[1].post((20, 10, "a", "out", 0, 1))

    sim = ShardedSimulation(shards, 1_000, (late_send, noop))
    shards[0].stage((10, 0, "a", "in", 0, 0))
    shards[1].stage((500, 0, "b", "in", 0, 1))
    with pytest.raises(SchedulingError, match="cannot schedule in the past: 20 < 500"):
        sim.run(export=export_nothing)
    assert_no_child_left()


def test_missing_handler_raises_before_any_fork(workers, monkeypatch):
    # An envelope staged at set-up is checked as it is staged, so the
    # run never starts, let alone forks.
    shards, sim = linked_pair()

    def no_fork():
        raise AssertionError("forked with an incomplete handler table")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(SimulationError, match=UNLISTED):
        shards[1].stage((20, 0, "b", "out", 0, 5))
    assert len(shards[1].staging) == 0
    assert sim.run(export=export_nothing) == 0


def test_handler_missing_mid_run_is_named(workers):
    # The worker's shard sends across workers with an index the table
    # lacks: the worker names it, and the error re-raises here.
    shards = [Shard(0), Shard(1)]

    def send_back():
        shards[0].post((2_000, 1_000, "b", "out", 0, 5))

    sim = ShardedSimulation(shards, 1_000, (send_back,))
    shards[1].stage((1_000, 0, "b", "in", 0, 0))
    with pytest.raises(SimulationError, match=UNLISTED):
        sim.run(export=export_nothing)
    assert sim.workers == 2
    assert_no_child_left()


def test_cooperative_without_export_or_a_second_cpu(workers):
    shards, sim = linked_pair()
    shards[1].stage((20, 0, "b", "out", 0, 0))
    sim.run()
    assert sim.workers == 1
    shards, sim = linked_pair()
    shards[1].stage((20, 0, "b", "out", 0, 0))
    workers(1)
    sim.run(export=export_nothing)
    assert sim.workers == 1


# -- merged state --------------------------------------------------------------

HOP, ECHO = 0, 1


def ring(n_shards, laps):
    """A token passed round ``n_shards`` shards ``laps`` times, plus a
    same-shard echo per hop; returns ``(shards, sim, delivered)`` where
    ``delivered`` counts this process's deliveries."""
    shards = [Shard(i) for i in range(n_shards)]
    delivered = []
    seqs = [0] * n_shards

    def send(src, dst, t, latency, handler, *args):
        seq = seqs[src]
        seqs[src] = seq + 1
        env = (t + latency, t, f"s{src}", "out", seq, handler, *args)
        (shards[dst].stage if dst == src else shards[dst].post)(env)

    def echo(me):
        delivered.append(me)

    def hop(me, left):
        delivered.append(me)
        t = shards[me].now
        send(me, me, t, 100, ECHO, me)
        if left:
            send(me, (me + 1) % n_shards, t, 300, HOP, (me + 1) % n_shards, left - 1)

    sim = ShardedSimulation(shards, 100, (hop, echo))
    shards[0].stage((50, 0, "token", "in", 0, HOP, 0, laps * n_shards))
    return shards, sim, delivered


def state(shards):
    return [
        (
            s.now, s.staging.released, s.staging.batches,
            len(s.staging), len(s.inbox), s.eot(),
        )
        for s in shards
    ]


@pytest.mark.parametrize("n_shards", [2, 3, 4])
def test_parent_shards_hold_the_merged_state(workers, n_shards):
    workers(1)
    shards, sim, _ = ring(n_shards, laps=5)
    sim.run(export=export_nothing)
    reference, reference_sweeps = state(shards), sim.sweeps

    workers(2)
    shards, sim, delivered = ring(n_shards, laps=5)
    sim.run(export=export_nothing)
    assert sim.workers == 2
    assert sim.exported == [(list(range(1, n_shards, 2)), None)]
    assert state(shards) == reference
    assert sim.sweeps == reference_sweeps
    assert all(s.busy_s > 0 for s in shards)
    assert len({s.now for s in shards}) == 1  # clocks aligned
    assert_no_child_left()

    # Nothing is left to deliver: a second run changes nothing.
    seen = len(delivered)
    assert sim.run(export=export_nothing) == reference_sweeps
    assert sim.run() == reference_sweeps
    assert len(delivered) == seen
    assert state(shards) == reference


# -- the traffic workload ------------------------------------------------------

FIELDS = ("digest", "makespan_ns", "events", "sweeps", "released", "batches", "shard_events")


@pytest.mark.parametrize("seed", SEEDS)
def test_traffic_matches_the_cooperative_driver(workers, seed):
    config = TrafficConfig(n_components=1000, seed=seed, spin=0)
    for n_shards in (2, 3, 4):
        workers(1)
        cooperative = run_traffic(config, n_shards)
        workers(2)
        forked = run_traffic(config, n_shards)
        assert (cooperative["workers"], forked["workers"]) == (1, 2)
        for field in FIELDS:
            assert forked[field] == cooperative[field], (n_shards, field)
    assert_no_child_left()
