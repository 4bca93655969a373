"""``partition_graph`` against its quadratic reference.

The linear version pops the BFS queue from a deque, walks components
as integer indices (neighbours as int sets, sorted per node) and checks
affinity names against the one name index.
None of that may move a component: every assignment must equal the
reference's unit-weight one, on the traffic graphs the benchmark
partitions and on random graphs with and without affinity pins, and the
traffic graphs' assignments are pinned as digests.
"""

import hashlib
import random

import pytest

from repro.sim.shard import partition_graph
from repro.workloads import TrafficConfig, build_traffic_graph

from reference_partition import partition_graph as reference_partition

SEEDS = [1, 7, 42]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_components", [100, 1000])
def test_traffic_graph_assignment_matches_reference(seed, n_components):
    graph = build_traffic_graph(TrafficConfig(n_components=n_components, seed=seed))
    for n_shards in (2, 3, 4):
        assert partition_graph(graph["names"], graph["edges"], n_shards) == reference_partition(
            graph["names"], graph["edges"], n_shards
        )


def _random_case(rng):
    n = rng.randrange(2, 60)
    names = [f"c{i}" for i in rng.sample(range(1000), n)]
    edges = [
        (rng.choice(names), rng.choice(names)) for _ in range(rng.randrange(0, 3 * n))
    ]
    n_shards = rng.randrange(1, min(n, 6) + 1)
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["affinity"] = {
            m: rng.randrange(n_shards) for m in rng.sample(names, rng.randrange(0, n // 3 + 1))
        }
    return names, edges, n_shards, kwargs


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_assignment_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(300):
        names, edges, n_shards, kwargs = _random_case(rng)
        assert partition_graph(names, edges, n_shards, **kwargs) == reference_partition(
            names, edges, n_shards, **kwargs
        ), (names, edges, n_shards, kwargs)


#: sha256 of ``bytes(assignment[name] for name in names)`` for the
#: seed-1 traffic graph, by ``(components, shards)``; captured before
#: the partition moved to integer indices.  The 10k graph is the one the
#: ``traffic_10k`` benchmark partitions inside its timed run.
TRAFFIC_ASSIGNMENT_SHA256 = {
    (1000, 1): "541b3e9daa09b20bf85fa273e5cbd3e80185aa4ec298e765db87742b70138a53",
    (1000, 2): "c0a813648aea885ad64a2b8dc58f759b0c6d53ac20da927735c2aa06d270af94",
    (1000, 4): "d1b3ece66257f866514e2a36c37142d3fed59a59b38b6e9a0b76c27bf1a2736b",
    (10000, 1): "95b532cc4381affdff0d956e12520a04129ed49d37e154228368fe5621f0b9a2",
    (10000, 2): "a7a2c70ed378982aa8591076637d5f982c7bfaf4c9e6077905f8ecf1eb04f106",
    (10000, 4): "3c5730eb5b9a0815bf8c1109ab123e55e613ac277ffa7109b1373bfecf19da70",
}


@pytest.mark.parametrize("n_components", [1000, 10000])
def test_traffic_graph_assignment_is_pinned(n_components):
    graph = build_traffic_graph(TrafficConfig(n_components=n_components, seed=1))
    names = graph["names"]
    for n_shards in (1, 2, 4):
        assignment = partition_graph(names, graph["edges"], n_shards)
        digest = hashlib.sha256(bytes(assignment[name] for name in names)).hexdigest()
        assert digest == TRAFFIC_ASSIGNMENT_SHA256[(n_components, n_shards)], n_shards
