"""Fixtures shared across test packages."""

import threading

import pytest

import repro.sim.shard


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(n)`` sets how many CPUs the shard process driver
    sees, so a test picks the cooperative driver (1) or ``n`` worker
    processes on any host.

    The driver stays cooperative while another thread is alive, so a
    thread an earlier test left running would silently turn a forked
    run into a cooperative one: fail here instead, naming it."""
    stray = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    assert not stray, f"threads left running by earlier tests keep the process driver off: {stray}"

    def use(n):
        monkeypatch.setattr(repro.sim.shard, "usable_cpus", lambda: n)

    return use
