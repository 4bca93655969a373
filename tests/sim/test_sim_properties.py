"""Property-based tests of kernel/channel/cache invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import CacheConfig, CacheSim
from repro.sim import Channel, Kernel, Timeout
from repro.sim.rng import RngRegistry

from reference_process import Process


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=60))
def test_kernel_fires_in_nondecreasing_time_order(delays):
    """Whatever the schedule, callbacks observe monotone time."""
    k = Kernel()
    seen = []
    for d in delays:
        k.schedule(d, lambda: seen.append(k.now))
    k.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
    assert k.now == max(delays)


@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=40),
    st.integers(1, 5),
)
def test_channel_preserves_fifo_order_property(put_delays, n_consumers):
    """Items come out in put order regardless of put timing and the
    number of competing consumers."""
    k = Kernel()
    ch = Channel(k)
    got = []

    def consumer():
        while True:
            item = yield from ch.get()
            if item is None:
                return
            got.append(item)

    # FIFO means *arrival* order: items put earlier come out earlier, and
    # equal-time puts keep their scheduling order (stable tie-break).
    items = list(range(len(put_delays)))
    arrival_order = [item for _, item in sorted(zip(put_delays, items), key=lambda p: p[0])]
    position = {item: i for i, item in enumerate(arrival_order)}
    per_consumer = [[] for _ in range(n_consumers)]

    def tagged_consumer(idx):
        while True:
            item = yield from ch.get()
            if item is None:
                return
            per_consumer[idx].append(item)
            got.append(item)

    for i in range(n_consumers):
        Process(k, tagged_consumer(i))
    for delay, item in zip(put_delays, items):
        k.schedule(delay, ch.put, item)
    stop_at = max(put_delays) + 1
    for _ in range(n_consumers):
        k.schedule(stop_at, ch.put, None)
    k.run()
    assert sorted(got) == items  # nothing lost, nothing duplicated
    if n_consumers == 1:
        assert per_consumer[0] == arrival_order
    for view in per_consumer:
        # each consumer sees a subsequence of the global arrival order
        positions = [position[item] for item in view]
        assert positions == sorted(positions)


@given(st.integers(0, 2**31), st.text(min_size=1, max_size=20))
def test_rng_streams_reproducible_and_independent(seed, name):
    a = RngRegistry(seed).stream(name).random(8)
    b = RngRegistry(seed).stream(name).random(8)
    assert np.array_equal(a, b)
    other = RngRegistry(seed).stream(name + "x").random(8)
    assert not np.array_equal(a, other)


class _ReferenceLru:
    """Oracle: per-set explicit LRU lists."""

    def __init__(self, sets, ways):
        self.sets = sets
        self.ways = ways
        self.state = [[] for _ in range(sets)]
        self.misses = 0

    def access(self, line):
        s = line % self.sets
        tag = line // self.sets
        lru = self.state[s]
        if tag in lru:
            lru.remove(tag)
            lru.append(tag)
        else:
            self.misses += 1
            if len(lru) >= self.ways:
                lru.pop(0)
            lru.append(tag)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
def test_cache_matches_reference_lru_model(lines):
    sets, ways, line_bytes = 4, 2, 64
    sim = CacheSim(CacheConfig(size_bytes=sets * ways * line_bytes, line_bytes=line_bytes, ways=ways))
    ref = _ReferenceLru(sets, ways)
    for line in lines:
        sim.access_range(line * line_bytes, 1)
        ref.access(line)
    assert sim.stats.misses == ref.misses


@given(st.lists(st.tuples(st.integers(0, 5_000), st.integers(0, 3)), min_size=1, max_size=30))
def test_process_interleaving_deterministic_property(script):
    """Two identical kernels running identical process sets produce the
    same event trace -- the determinism contract."""

    def run_once():
        k = Kernel()
        log = []

        def body(tag, steps):
            for s in steps:
                yield Timeout(s)
                log.append((k.now, tag))

        for i, (base, extra) in enumerate(script):
            Process(k, body(i, [base, base + extra, 1]))
        k.run()
        return log

    assert run_once() == run_once()
