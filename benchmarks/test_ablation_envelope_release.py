"""Ablation A10 -- the envelope layer: key comparison and batched release.

Two questions about :mod:`repro.sim.mailbox`:

1. **How envelopes compare.**  An envelope is a plain tuple whose first
   five elements are its key, ``(*key, handler_index, *args)``, so
   ``heapq`` orders envelopes with the C tuple comparison.  The class
   the tuple form replaced compared through a Python ``__lt__`` that
   built two key tuples per call; :class:`LtEnvelope` below keeps it as
   the reference, with a handler index in place of its callable.  Both
   are timed constructing, pushing and popping the same envelopes, once
   with every ``recv_time`` distinct and once with 1000-way
   ``recv_time`` ties (the traffic model's shape: the comparison runs
   deep into the key).  Each arm builds its envelope through one call,
   so the tuple arm pays a call the shipped code, which builds the
   tuple inline, does not.
2. **Whether batched release earns its code.**  ``run_traffic`` at 10k
   components x 4 shards (the ``traffic_10k`` workload) with
   ``Staging.release_batched`` (one ``deliver`` call per distinct
   receive time) and with it replaced by ``Staging.release_below`` (one
   per envelope).  Runs alternate arms and report the median; digests
   must agree.
"""

import statistics
import time
from heapq import heappop, heappush
from sys import intern

import pytest

from repro.metrics import Table
from repro.sim.mailbox import Staging
from repro.workloads import TrafficConfig, run_traffic
from repro.workloads.traffic import build_traffic_graph

from benchmarks.conftest import save_result

N_ENVELOPES = 100_000
REPEAT = 5
TRAFFIC = TrafficConfig(n_components=10_000, ticks=3, seed=1)
TRAFFIC_SHARDS = 4
TRAFFIC_PAIRS = 3


class LtEnvelope:
    """Reference: the envelope before it became a tuple -- slots plus a
    Python ``__lt__`` over a freshly built key tuple."""

    __slots__ = ("recv_time", "send_time", "src", "src_interface", "seq", "handler")

    def __init__(self, recv_time, send_time, src, src_interface, seq, handler):
        if recv_time < send_time:
            raise ValueError("recv_time precedes send_time")
        self.recv_time = recv_time
        self.send_time = send_time
        self.src = intern(src)
        self.src_interface = intern(src_interface)
        self.seq = seq
        self.handler = handler

    @property
    def key(self):
        return (self.recv_time, self.send_time, self.src, self.src_interface, self.seq)

    def __lt__(self, other):
        return self.key < other.key


def tuple_envelope(*fields):
    """The shipped form: the fields themselves, as one tuple."""
    return fields


def heap_ns_per_envelope(make, ties: int) -> float:
    """Best-of-``REPEAT`` construct + push + pop cost per envelope."""
    srcs = ["c%d" % k for k in range(64)]
    ifaces = ["s%d" % k for k in range(4)]
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        heap = []
        for i in range(N_ENVELOPES):
            recv = i // ties + 1
            heappush(heap, make(recv, recv - 1, srcs[i % 64], ifaces[i % 4], i, 0))
        while heap:
            heappop(heap)
        best = min(best, time.perf_counter() - t0)
    return best / N_ENVELOPES * 1e9


def traffic_arms():
    """Median end-to-end ``run_traffic`` seconds per release mode."""
    graph = build_traffic_graph(TRAFFIC)
    times = {True: [], False: []}
    results = {}
    for pair in range(TRAFFIC_PAIRS):
        order = (True, False) if pair % 2 == 0 else (False, True)
        for batched in order:
            with pytest.MonkeyPatch.context() as patch:
                if not batched:
                    patch.setattr(Staging, "release_batched", Staging.release_below)
                t0 = time.perf_counter()
                results[batched] = run_traffic(TRAFFIC, TRAFFIC_SHARDS, graph=graph)
                times[batched].append(time.perf_counter() - t0)
    assert results[True]["digest"] == results[False]["digest"]
    return {
        batched: {
            "run_s": statistics.median(times[batched]),
            "batch_factor": results[batched]["batch_factor"],
            "events": results[batched]["events"],
        }
        for batched in (True, False)
    }


def run_ablation():
    compare = {
        ties: {
            "__lt__": heap_ns_per_envelope(LtEnvelope, ties),
            "tuple": heap_ns_per_envelope(tuple_envelope, ties),
        }
        for ties in (1, 1000)
    }
    return compare, traffic_arms()


def test_envelope_release_ablation(benchmark):
    compare, arms = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    heap_table = Table(
        ["recv_time ties", "__lt__ envelope (ns)", "tuple envelope (ns)", "speedup"],
        title=(
            f"Ablation A10a: construct + heappush + heappop per envelope "
            f"({N_ENVELOPES:,} envelopes, best of {REPEAT})"
        ),
    )
    for ties, row in compare.items():
        heap_table.add_row(
            [ties, round(row["__lt__"]), round(row["tuple"]),
             f"{row['__lt__'] / row['tuple']:.2f}x"]
        )
    on, off = arms[True], arms[False]
    release_table = Table(
        ["release", "run_s (median)", "callbacks/envelope", "events/s"],
        title=(
            f"Ablation A10b: run_traffic, {TRAFFIC.n_components:,} components x "
            f"{TRAFFIC_SHARDS} shards, median of {TRAFFIC_PAIRS} alternating runs"
        ),
    )
    for name, arm in (("batched", on), ("per-envelope", off)):
        release_table.add_row(
            [name, round(arm["run_s"], 3), f"1/{arm['batch_factor']:.0f}",
             round(arm["events"] / arm["run_s"])]
        )
    gain = off["run_s"] / on["run_s"] - 1
    verdict = (
        f"batched release is {gain:+.1%} faster end to end than per-envelope release "
        f"({'above' if gain > 0.10 else 'not above'} the 10% keep threshold)"
    )
    save_result(
        "ablation_envelope_release",
        "\n\n".join([heap_table.render(), release_table.render(), verdict]),
    )

    # The C tuple comparison beats the Python __lt__ in both shapes.
    for row in compare.values():
        assert row["tuple"] < row["__lt__"], row
