"""Interconnect cost helpers.

The 16-core Opteron platform in the paper has eight NUMA nodes, each with
three links to other nodes -- i.e. a degree-3 graph on 8 nodes, which is a
3-dimensional hypercube.  Remote memory traffic pays a per-hop factor on
top of the local per-byte cost.
"""

from __future__ import annotations

import numpy as np


def hypercube_distance(a: int, b: int) -> int:
    """Hop count between nodes of a hypercube = Hamming distance of ids."""
    if a < 0 or b < 0:
        raise ValueError("node ids must be non-negative")
    return int(bin(a ^ b).count("1"))


def hypercube_distance_matrix(n_nodes: int) -> np.ndarray:
    """Full hop-distance matrix for an ``n_nodes`` hypercube.

    ``n_nodes`` must be a power of two.
    """
    if n_nodes <= 0 or (n_nodes & (n_nodes - 1)) != 0:
        raise ValueError(f"hypercube needs a power-of-two node count, got {n_nodes}")
    ids = np.arange(n_nodes)
    xor = ids[:, None] ^ ids[None, :]
    # popcount via uint8 view lookup
    mat = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    tmp = xor.copy()
    while tmp.any():
        mat += tmp & 1
        tmp >>= 1
    return mat


class NumaCostModel:
    """Per-byte copy cost scaled by NUMA distance.

    ``cost_factor(src_node, dst_node) = 1 + hop_penalty * hops`` -- the
    standard affine NUMA model: remote accesses stretch linearly with the
    number of interconnect hops crossed.
    """

    def __init__(
        self,
        distance_matrix: np.ndarray,
        hop_penalty: float = 0.2,
    ) -> None:
        d = np.asarray(distance_matrix)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if (d < 0).any():
            raise ValueError("distances must be non-negative")
        if (d != d.T).any():
            raise ValueError("distance matrix must be symmetric")
        self.distance = d
        self.hop_penalty = float(hop_penalty)

    @property
    def n_nodes(self) -> int:
        """Number of NUMA nodes covered by the matrix."""
        return self.distance.shape[0]

    def hops(self, src_node: int, dst_node: int) -> int:
        """Hop distance between two nodes."""
        return int(self.distance[src_node, dst_node])

    def cost_factor(self, src_node: int, dst_node: int) -> float:
        """Per-byte copy-cost multiplier between two nodes."""
        return 1.0 + self.hop_penalty * self.hops(src_node, dst_node)
