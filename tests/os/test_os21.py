"""Unit tests for the OS21-like RTOS substrate."""

import pytest

from repro.hw import make_sti7200
from repro.os21 import OS21System
from repro.os21.system import DEFAULT_TASK_BYTES
from repro.sim import Kernel, Timeout
from repro.sim.executor import Compute


def make_sys():
    k = Kernel()
    return k, OS21System(k, make_sti7200())


def test_default_task_bytes_matches_table3():
    assert DEFAULT_TASK_BYTES == 60 * 1024


def test_task_create_pins_to_cpu():
    k, sys_ = make_sys()

    def body():
        yield Compute("ns", 100)

    t = sys_.task_create(body(), name="t", cpu=2)
    sys_.shutdown()
    k.run()
    assert t.sched.cpu_time_ns == 100
    assert sys_.engine.cores[2].busy_ns == 100
    assert all(c.busy_ns == 0 for i, c in enumerate(sys_.engine.cores) if i != 2)


def test_task_memory_charged_to_local_sram_for_st231():
    k, sys_ = make_sys()
    local = sys_.platform.region("st231_0_local")

    def body():
        yield Timeout(1)

    sys_.task_create(body(), name="t", cpu=1)
    assert local.used_bytes == DEFAULT_TASK_BYTES
    sys_.shutdown()
    k.run()
    assert local.used_bytes == 0


def test_task_memory_charged_to_sdram_for_st40():
    k, sys_ = make_sys()
    sdram = sys_.platform.region("sdram")

    def body():
        yield Timeout(1)

    sys_.task_create(body(), name="t", cpu=0)
    assert sdram.used_bytes == DEFAULT_TASK_BYTES
    sys_.shutdown()
    k.run()


def test_task_time_is_cpu_time_not_wall_time():
    """The Table 3 semantics: task_time excludes blocked/idle periods."""
    k, sys_ = make_sys()

    def body():
        yield Compute("ns", 4_000_000)
        yield Timeout(100_000_000)  # long idle wait
        yield Compute("ns", 1_000_000)

    t = sys_.task_create(body(), name="t", cpu=1)
    sys_.shutdown()
    k.run()
    assert sys_.task_time_us(t) == 5_000
    assert t.sched.end_time_ns - t.sched.start_time_ns == 105_000_000


def test_time_now_is_per_cpu_local():
    k, sys_ = make_sys()
    # local clocks are offset from each other (unsynchronised)
    assert len(set(sys_.clock_offsets_ns[:5])) > 1


def test_priority_preemption_between_tasks_on_one_cpu():
    k, sys_ = make_sys()
    log = []

    def low():
        yield Compute("ns", 10_000)
        log.append(("low", k.now))

    def high():
        yield Compute("ns", 1_000)
        log.append(("high", k.now))

    sys_.task_create(low(), name="low", cpu=1, priority=1)

    def launch():
        sys_.task_create(high(), name="high", cpu=1, priority=9)

    k.schedule(2_000, launch)
    sys_.shutdown()
    k.run()
    assert log[0][0] == "high"
    assert log[0][1] == 3_000


def test_duplicate_task_name_rejected():
    k, sys_ = make_sys()

    def body():
        yield Timeout(1)

    sys_.task_create(body(), name="t", cpu=0)
    with pytest.raises(ValueError, match="already in use"):
        sys_.task_create(body(), name="t", cpu=1)


def test_invalid_cpu_rejected():
    k, sys_ = make_sys()
    with pytest.raises(ValueError, match="no CPU"):
        sys_.task_create((x for x in []), name="t", cpu=9)


def test_heterogeneous_cost_st40_vs_st231():
    """The same logical work is ~10x slower on the ST40 than an ST231."""
    k, sys_ = make_sys()

    def body():
        yield Compute("reorder_block", 10)

    t40 = sys_.task_create(body(), name="on40", cpu=0)
    t231 = sys_.task_create(body(), name="on231", cpu=1)
    sys_.shutdown()
    k.run()
    assert t40.sched.cpu_time_ns > 1.2 * t231.sched.cpu_time_ns
