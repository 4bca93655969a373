"""Unit tests for the Linux-like OS substrate."""

import pytest

from repro.hw import make_smp16
from repro.oslinux import DEFAULT_STACK_BYTES, LinuxSystem
from repro.oslinux.system import HOME_NODE
from repro.sim import Kernel, Timeout
from repro.sim.executor import Compute


def make_sys():
    k = Kernel()
    return k, LinuxSystem(k, make_smp16())


def test_default_stack_matches_paper():
    assert DEFAULT_STACK_BYTES == 8392 * 1024


def test_thread_stack_charged_and_released():
    k, sys_ = make_sys()
    proc = sys_.spawn_process("app")
    region = sys_.node_region(HOME_NODE)

    def worker():
        yield Timeout(100)

    t = proc.pthread_create(worker(), name="w")
    assert region.used_bytes == DEFAULT_STACK_BYTES
    assert t.attr_getstacksize() == DEFAULT_STACK_BYTES
    sys_.shutdown()
    k.run()
    assert region.used_bytes == 0


def test_custom_stack_size():
    k, sys_ = make_sys()
    proc = sys_.spawn_process("app")

    def worker():
        yield Timeout(1)

    t = proc.pthread_create(worker(), stack_bytes=1024 * 1024)
    assert t.attr_getstacksize() == 1024 * 1024
    sys_.shutdown()
    k.run()


def test_malloc_accounting():
    k, sys_ = make_sys()
    proc = sys_.spawn_process("app")
    proc.malloc(5000, label="buf")
    assert proc.heap_bytes == 5000
    assert sys_.node_region(HOME_NODE).used_bytes == 5000
    assert proc.heap_peak == 5000


def test_malloc_on_explicit_node():
    k, sys_ = make_sys()
    proc = sys_.spawn_process("app")
    proc.malloc(100, node=5)
    assert sys_.node_region(5).used_bytes == 100
    assert sys_.node_region(HOME_NODE).used_bytes == 0


def test_threads_spread_across_cores():
    """16 independent CPU-bound threads on 16 cores finish in ~1 unit."""
    k, sys_ = make_sys()
    proc = sys_.spawn_process("app")

    def worker():
        yield Compute("ns", 1_000_000)

    for i in range(16):
        proc.pthread_create(worker(), name=f"w{i}")
    sys_.shutdown()
    k.run()
    assert k.now == 1_000_000


def test_oversubscription_time_shares():
    """32 threads on 16 cores take ~2x the single-thread time."""
    k, sys_ = make_sys()
    proc = sys_.spawn_process("app")

    def worker():
        yield Compute("ns", 1_000_000)

    for i in range(32):
        proc.pthread_create(worker(), name=f"w{i}")
    sys_.shutdown()
    k.run()
    assert k.now == 2_000_000


def test_cpu_time_accounting():
    k, sys_ = make_sys()
    proc = sys_.spawn_process("app")

    def worker():
        yield Compute("ns", 700)
        yield Timeout(10_000)  # off-CPU
        yield Compute("ns", 300)

    t = proc.pthread_create(worker())
    sys_.shutdown()
    k.run()
    assert t.sched.cpu_time_ns == 1000
    assert t.sched.end_time_ns - t.sched.start_time_ns == 11_000
