"""Unit tests for memory regions and allocation tracking."""

import pytest

from repro.hw import AllocationError, MemoryRegion


def test_alloc_free_roundtrip():
    r = MemoryRegion("m", 1000)
    h = r.alloc(400, "stack")
    assert r.used_bytes == 400
    r.free(h)
    assert r.used_bytes == 0


def test_exhaustion_raises():
    r = MemoryRegion("m", 100)
    r.alloc(80)
    with pytest.raises(AllocationError, match="exhausted"):
        r.alloc(30)


def test_peak_tracks_high_water_mark():
    r = MemoryRegion("m", 1000)
    h1 = r.alloc(500)
    h2 = r.alloc(300)
    r.free(h1)
    r.free(h2)
    assert r.peak_bytes == 800
    assert r.used_bytes == 0


def test_double_free_rejected():
    r = MemoryRegion("m", 100)
    h = r.alloc(10)
    r.free(h)
    with pytest.raises(AllocationError, match="unknown"):
        r.free(h)


def test_timeline_records_samples():
    r = MemoryRegion("m", 1000)
    h = r.alloc(100, time_ns=10)
    r.alloc(200, time_ns=20)
    r.free(h, time_ns=30)
    assert r.timeline() == [(10, 100), (20, 300), (30, 200)]


def test_negative_alloc_rejected():
    r = MemoryRegion("m", 100)
    with pytest.raises(AllocationError):
        r.alloc(-5)


def test_zero_size_region_rejected():
    with pytest.raises(AllocationError):
        MemoryRegion("m", 0)
