"""Tests for the traffic-model scale workload.

The contracts under test mirror the CI gates: the trace digest is
identical for every shard count, batched release changes nothing but
the callback count.
"""

import pytest

from repro.sim.mailbox import Staging
from repro.workloads import TrafficConfig, build_traffic_graph, run_traffic, traffic

CFG = TrafficConfig(n_components=200, ticks=2, spin=5)

#: Digest and makespan of the 1k-component seed-1 model (the CLI's
#: ``run --workload traffic --components 1000``).  The shard-count oracle
#: compares the code against itself; these literals also catch a change
#: that moves every shard count alike.  ``spin`` is host work only.
PINNED_1K = TrafficConfig(n_components=1000, seed=1, spin=0)
PINNED_1K_DIGEST = "f4d366f3675d9c4c5759a372aa3449df8a13f6f41edd1573faae459bc67b59f1"
PINNED_1K_MAKESPAN_NS = 3_007_500


def test_graph_is_deterministic_and_complete():
    graph = build_traffic_graph(CFG)
    again = build_traffic_graph(CFG)
    assert graph["names"] == again["names"]
    assert graph["edges"] == again["edges"]
    assert len(graph["names"]) == CFG.n_components
    n_ingress, n_front, n_back, n_sink = graph["tiers"]
    assert n_ingress + n_front + n_back + n_sink == CFG.n_components
    names = set(graph["names"])
    assert all(a in names and b in names for a, b in graph["edges"])


def test_traffic_rejects_tiny_graphs():
    with pytest.raises(ValueError, match="at least 8"):
        build_traffic_graph(TrafficConfig(n_components=4))


@pytest.mark.parametrize("field, value", [("ticks", 0), ("ticks", -1)])
def test_traffic_rejects_runs_without_requests(field, value):
    # No tick issues no request: the run would simulate 0 events, so the
    # config is refused up front.
    with pytest.raises(ValueError, match=f"{field}={value}"):
        TrafficConfig(n_components=100, **{field: value})


def test_one_ns_hops_are_shard_count_invariant(monkeypatch):
    # The least lookahead the shard layer can run ahead by.
    monkeypatch.setattr(traffic, "COMPUTE_NS", 1)
    monkeypatch.setattr(traffic, "LINK_NS", 0)
    config = TrafficConfig(n_components=100, ticks=2, spin=0)
    reference = run_traffic(config, 1)
    for n_shards in (2, 4):
        result = run_traffic(config, n_shards)
        assert (result["digest"], result["makespan_ns"]) == (
            reference["digest"], reference["makespan_ns"]
        )


def test_digest_invariant_across_shard_counts():
    reference = run_traffic(CFG, 1)
    assert reference["events"] == reference["requests"] * (2 + 2 * traffic.FANOUT)
    for n_shards in (2, 4):
        result = run_traffic(CFG, n_shards)
        assert result["digest"] == reference["digest"]
        assert result["events"] == reference["events"]
        assert result["makespan_ns"] == reference["makespan_ns"]


@pytest.mark.parametrize("n_shards", (1, 4))
def test_1k_seed1_digest_is_pinned(n_shards):
    result = run_traffic(PINNED_1K, n_shards)
    assert result["digest"] == PINNED_1K_DIGEST
    assert result["makespan_ns"] == PINNED_1K_MAKESPAN_NS
    assert result["events"] == 5850


@pytest.mark.parametrize("seed", (1, 7, 42))
def test_batched_release_matches_per_envelope(monkeypatch, seed):
    config = TrafficConfig(n_components=120, ticks=2, spin=0, seed=seed)
    batched = run_traffic(config, 3)
    monkeypatch.setattr(Staging, "release_batched", Staging.release_below)
    reference = run_traffic(config, 3)
    assert batched["digest"] == reference["digest"]
    assert batched["events"] == reference["events"]
    # Per-envelope release schedules one callback per envelope; batching
    # must do strictly better on this tick-aligned workload.
    assert reference["batch_factor"] == 1.0
    assert batched["batch_factor"] > 10.0


#: ``(events, sweeps, released, batches, shard_events)`` of the
#: 1k-component model per ``(seed, shards)``, cooperative driver.  The
#: work a run does, apart from what each unit of it costs: a speed-up of
#: the shard layer must leave these alone.
TRAFFIC_1K_WORK = {
    (1, 1): (5850, 1, 5850, 12, [5850]),
    (1, 2): (5850, 12, 5850, 21, [3634, 2216]),
    (1, 4): (5850, 12, 5850, 36, [2449, 1185, 1106, 1110]),
    (7, 1): (5850, 1, 5850, 12, [5850]),
    (7, 2): (5850, 12, 5850, 24, [3711, 2139]),
    (7, 4): (5850, 12, 5850, 39, [2495, 1216, 1052, 1087]),
    (42, 1): (5850, 1, 5850, 12, [5850]),
    (42, 2): (5850, 12, 5850, 21, [3887, 1963]),
    (42, 4): (5850, 12, 5850, 36, [2622, 1265, 871, 1092]),
}


@pytest.mark.parametrize("seed, n_shards", sorted(TRAFFIC_1K_WORK))
def test_traffic_1k_work_counts_are_pinned(usable_cpus, seed, n_shards):
    usable_cpus(1)
    result = run_traffic(TrafficConfig(n_components=1000, seed=seed, spin=0), n_shards)
    assert result["workers"] == 1
    fields = ("events", "sweeps", "released", "batches", "shard_events")
    assert tuple(result[f] for f in fields) == TRAFFIC_1K_WORK[(seed, n_shards)]
