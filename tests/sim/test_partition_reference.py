"""``partition_graph`` against its quadratic reference.

The linear version pops the BFS queue from a deque, orders neighbours
by declaration order alone, and checks affinity names against one set.
None of that may move a component: every assignment must equal the
reference's unit-weight one, on the traffic graphs the benchmark
partitions and on random graphs with and without affinity pins.
"""

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
