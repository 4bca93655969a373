"""Unit tests for CPU cost models."""

import pytest

from repro.hw import CpuModel


def test_cost_scales_with_units():
    cpu = CpuModel("c", 1e9, {"op": 10})
    assert cpu.cost_ns("op", 1) == 10
    assert cpu.cost_ns("op", 100) == 1000


def test_cost_scales_with_frequency():
    fast = CpuModel("fast", 2e9, {"op": 10})
    slow = CpuModel("slow", 1e9, {"op": 10})
    assert slow.cost_ns("op", 100) == 2 * fast.cost_ns("op", 100)


def test_unknown_opclass_uses_default():
    cpu = CpuModel("c", 1e9, {"op": 10}, default_cycles=3)
    assert cpu.cost_ns("mystery", 100) == 300


def test_ns_opclass_charges_raw_time():
    cpu = CpuModel("c", 123e6, {})
    assert cpu.cost_ns("ns", 5000) == 5000


def test_fractional_cycles_per_byte():
    cpu = CpuModel("c", 1e9, {"memcpy_byte": 0.5})
    assert cpu.cost_ns("memcpy_byte", 1000) == 500


def test_invalid_frequency_rejected():
    with pytest.raises(ValueError):
        CpuModel("c", 0)


def test_negative_cycle_cost_rejected():
    with pytest.raises(ValueError):
        CpuModel("c", 1e9, {"op": -1})
