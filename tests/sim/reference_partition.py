"""Reference model for ``repro.sim.shard.partition_graph``: the
quadratic version, kept verbatim (validation included).

It popped the BFS queue with ``list.pop(0)``, built ``set(names)`` once
per affinity pin and sorted every node's neighbours through a weight
lookup even when no edge carried a weight.  The linear version must
return the identical assignment for every input;
``tests/sim/test_partition_reference.py`` holds it to that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def partition_graph(
    names: Sequence[str],
    edges: Iterable[Tuple[str, str]],
    n_shards: int,
    affinity: Optional[Dict[str, int]] = None,
    weights: Optional[Dict[str, float]] = None,
    edge_weights: Optional[Dict[Tuple[str, str], float]] = None,
) -> Dict[str, int]:
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    names = list(names)
    if len(set(names)) != len(names):
        raise ValueError("component names must be unique")
    if n_shards > len(names):
        raise ValueError(
            f"cannot spread {len(names)} component(s) over {n_shards} shards "
            f"without empty shards; use at most {len(names)} shards"
        )
    affinity = dict(affinity or {})
    for name, shard in affinity.items():
        if name not in set(names):
            raise ValueError(f"affinity names unknown component {name!r}")
        if not 0 <= shard < n_shards:
            raise ValueError(f"affinity pins {name!r} to shard {shard}, have {n_shards}")
    weight = {n: float((weights or {}).get(n, 1.0)) for n in names}

    order_of = {n: i for i, n in enumerate(names)}
    adjacency: Dict[str, List[str]] = {n: [] for n in names}
    for a, b in edges:
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown component")
        if a != b:
            adjacency[a].append(b)
            adjacency[b].append(a)
    pair_weight: Dict[Tuple[str, str], float] = {}
    for (a, b), w in (edge_weights or {}).items():
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"edge weight ({a!r}, {b!r}) references unknown component")
        if a != b:
            key = (a, b) if order_of[a] <= order_of[b] else (b, a)
            pair_weight[key] = pair_weight.get(key, 0.0) + float(w)

    def hop_weight(a: str, b: str) -> float:
        key = (a, b) if order_of[a] <= order_of[b] else (b, a)
        return pair_weight.get(key, 0.0)

    bfs: List[str] = []
    seen = set()
    for seed in names:
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        while queue:
            node = queue.pop(0)
            bfs.append(node)
            for nxt in sorted(
                set(adjacency[node]),
                key=lambda m: (-hop_weight(node, m), order_of[m]),
            ):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)

    assignment = dict(affinity)
    total = sum(weight.values())
    pinned_load = [0.0] * n_shards
    for name, shard in affinity.items():
        pinned_load[shard] += weight[name]

    target = total / n_shards
    shard = 0
    load = pinned_load[0]
    for name in bfs:
        if name in assignment:
            continue
        while shard < n_shards - 1 and load + weight[name] / 2 >= target:
            shard += 1
            load = pinned_load[shard]
        assignment[name] = shard
        load += weight[name]
    return assignment
