"""Ablation A9 -- the IDCT kernel: einsum path search vs fixed matmuls.

``repro.mjpeg.dct.idct_blocks`` is two batched matmuls in a fixed
association order, ``(C^T @ X) @ C``.  The formulation it replaced was
``np.einsum(..., optimize=True)``, which re-runs the contraction-path
search on every call.  This bench times, per call, at the Fetch stage's
batch size (8 blocks) and at a whole 96x96 frame (144 blocks):

- ``einsum(optimize=True)``: path search + contraction on every call;
- einsum with the path computed once by ``np.einsum_path``;
- the committed kernel.

All three are asserted bit-identical on the timed inputs, so the only
thing that differs is host cost.
"""

import timeit

import numpy as np

from repro.metrics import Table
from repro.mjpeg.dct import DCT_MATRIX, idct_blocks

from benchmarks.conftest import save_result

SUBSCRIPTS = "ji,...jk,kl->...il"
BLOCK_COUNTS = (8, 144)
NUMBER = 2000
REPEAT = 5


def per_call_us(fn, x):
    return min(timeit.repeat(lambda: fn(x), number=NUMBER, repeat=REPEAT)) / NUMBER * 1e6


def run_ablation():
    c = DCT_MATRIX
    rng = np.random.default_rng(9)
    results = {}
    for n in BLOCK_COUNTS:
        x = np.round(rng.uniform(-1024, 1024, (n, 8, 8)))
        path = np.einsum_path(SUBSCRIPTS, c, x, c, optimize="greedy")[0]
        variants = {
            "einsum(optimize=True)": lambda a: np.einsum(SUBSCRIPTS, c, a, c, optimize=True),
            "einsum, precomputed path": lambda a: np.einsum(SUBSCRIPTS, c, a, c, optimize=path),
            "matmul (C^T @ X) @ C": idct_blocks,
        }
        ref = idct_blocks(x)
        for name, fn in variants.items():
            assert np.array_equal(fn(x), ref), name
        results[n] = {name: per_call_us(fn, x) for name, fn in variants.items()}
    return results


def test_dct_kernel_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    names = list(results[BLOCK_COUNTS[0]])
    table = Table(
        ["Blocks/call"] + [f"{name} (us)" for name in names],
        title="Ablation A9: IDCT kernel cost per call (best of 5 x 2000 calls)",
    )
    for n, row in results.items():
        table.add_row([n] + [round(row[name], 1) for name in names])
    save_result("ablation_dct_kernel", table.render())

    # The fixed matmul order beats both einsum forms at both sizes.
    for row in results.values():
        einsum_opt, einsum_path, matmul = (row[name] for name in names)
        assert matmul < einsum_path < einsum_opt, row
