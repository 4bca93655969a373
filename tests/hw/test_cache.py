"""Unit tests for the set-associative cache simulator."""

import pytest

from repro.hw import CacheConfig, CacheSim


def small_cache(ways=2, sets=4, line=64):
    return CacheSim(CacheConfig(size_bytes=ways * sets * line, line_bytes=line, ways=ways))


def access(cache, addresses):
    """Touch each byte address in turn; returns the misses."""
    return sum(cache.access_range(addr, 1) for addr in addresses)


def test_cold_miss_then_hit():
    c = small_cache()
    assert access(c, [0]) == 1
    assert access(c, [0]) == 0
    assert c.stats.hits == 1
    assert c.stats.misses == 1


def test_same_line_is_one_miss():
    c = small_cache(line=64)
    misses = access(c, [0, 1, 63])
    assert misses == 1


def test_lru_eviction_within_set():
    c = small_cache(ways=2, sets=1, line=64)
    a, b, d = 0, 64, 128  # all map to the single set
    access(c, [a, b])       # fill both ways
    access(c, [a])          # a is now most-recent
    access(c, [d])          # evicts b (LRU)
    assert access(c, [a]) == 0   # a still resident
    assert access(c, [b]) == 1   # b was evicted
    assert c.stats.evictions >= 1


def test_access_range_touches_each_line_once():
    c = small_cache(ways=8, sets=64, line=64)
    misses = c.access_range(0, 64 * 10)
    assert misses == 10
    # re-reading the same range hits
    assert c.access_range(0, 64 * 10) == 0


def test_access_range_partial_lines():
    c = small_cache(ways=8, sets=64, line=64)
    # 1 byte spanning into line 0 only
    assert c.access_range(10, 1) == 1
    # crossing a line boundary touches two lines (one already resident)
    assert c.access_range(60, 8) == 1


def test_access_range_zero_bytes():
    c = small_cache()
    assert c.access_range(0, 0) == 0


def test_miss_rate():
    c = small_cache()
    access(c, [0, 0, 0, 64])
    assert c.stats.accesses == 4
    assert c.stats.miss_rate == pytest.approx(0.5)


def test_streaming_larger_than_cache_always_misses():
    c = small_cache(ways=2, sets=4, line=64)  # 512 B cache
    first = c.access_range(0, 4096)
    second = c.access_range(0, 4096)
    assert first == 64
    assert second == 64  # nothing useful survives the stream


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, line_bytes=64, ways=3)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=0)
