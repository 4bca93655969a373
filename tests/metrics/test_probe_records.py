"""One probe record per middleware operation, folded into every plane.

The probe's timers, the telemetry histograms and counters and the
contract checker all see every operation.  One fold feeds the timers and
the telemetry from the same records, at window rolls and before every
read, and must neither lose nor double-count a record when native-runtime
threads append while another thread folds.
"""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import Component, Message, ObservationProbe
from repro.core.contracts import ORDERING, InterfaceContract
from repro.metrics import telemetry
from repro.metrics.telemetry import enable_telemetry

N_OPS = 40


def _wired_probes(n=1, contract=None):
    """Probes behind ``enable_telemetry`` on a runtime-shaped stub, all
    sharing one registry with 1 us windows (one roll per operation)."""
    containers = {}
    for i in range(n):
        comp = Component(f"c{i}")
        comp.add_provided("in")
        comp.add_required("out")
        if contract is not None:
            comp.set_contract("in", contract)
        probe = ObservationProbe(comp)
        containers[comp.name] = SimpleNamespace(component=comp, probe=probe, extra={})
    rt = SimpleNamespace(containers=containers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(telemetry, "DEFAULT_WINDOW_NS", 1_000)
        registry = enable_telemetry(rt)
    return [c.probe for c in containers.values()], registry


def _drive(probe, n=N_OPS):
    """``n`` sends then receives, interleaved; receive seq never grows,
    so every receive after the first breaks an ordering contract."""
    for i in range(n):
        probe.record_send("out", Message(payload=b"x" * 8, sent_at_us=i), 100 + i)
        probe.record_receive(
            "in", Message(payload=b"x" * 8, sent_at_us=i, seq=1, src="p"), 200 + i, now_us=i + 1
        )


def _instrument(registry, name, iface, component="c0"):
    labels = {"component": component, "iface": iface}
    if name.startswith("messages_") or name.startswith("bytes_"):
        return registry.counter(name, **labels).value
    return registry.histogram(name, **labels).count


def test_timers_telemetry_and_contracts_count_every_operation():
    (probe,), registry = _wired_probes(contract=InterfaceContract(ordered=True))
    _drive(probe)
    registry.finish()
    # All 2 * N_OPS operations reach every plane.
    assert probe.send_timer.count == probe.recv_timer.count == N_OPS
    assert probe.latency_timer.count == N_OPS
    assert sum(t.count for t in probe.send_timers_by_iface.values()) == N_OPS
    assert sum(t.count for t in probe.recv_timers_by_iface.values()) == N_OPS
    assert _instrument(registry, "send_duration_ns", iface="out") == N_OPS
    assert _instrument(registry, "receive_duration_ns", iface="in") == N_OPS
    assert _instrument(registry, "delivery_latency_ns", iface="in") == N_OPS
    assert _instrument(registry, "messages_sent_total", iface="out") == N_OPS
    assert _instrument(registry, "messages_received_total", iface="in") == N_OPS
    assert _instrument(registry, "bytes_sent_total", iface="out") == probe.bytes_sent > 0
    assert _instrument(registry, "bytes_received_total", iface="in") == probe.bytes_received > 0
    assert probe.telemetry.checker.violations == {("in", ORDERING): N_OPS - 1}
    # Every record landed in exactly one window.
    iid = "receive_duration_ns{component=c0,iface=in}"
    assert sum(w.data[iid]["count"] for w in registry.windows if iid in w.data) == N_OPS


def test_concurrent_appends_and_folds_lose_and_double_count_nothing():
    """Component threads append (and roll windows, folding each other's
    records) while another thread folds and reads timers."""
    n_threads, n_ops = 4, 3_000
    probes, registry = _wired_probes(n_threads)
    messages = [Message(payload=b"", sent_at_us=k) for k in range(n_ops)]
    done = threading.Event()

    def component(probe):
        for k, message in enumerate(messages):
            probe.record_send("out", message, 10)
            probe.record_receive("in", message, 20, now_us=k + 1)

    def observer():
        while not done.is_set():
            for probe in probes:
                probe._fold()
                probe.send_timer.count

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        folder = threading.Thread(target=observer)
        folder.start()
        workers = [threading.Thread(target=component, args=(p,)) for p in probes]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        done.set()
        folder.join()
    finally:
        sys.setswitchinterval(old_interval)
    for probe in probes:
        name = probe.component.name
        assert probe.send_timer.count == probe.recv_timer.count == n_ops
        assert _instrument(registry, "send_duration_ns", "out", name) == n_ops
        assert _instrument(registry, "receive_duration_ns", "in", name) == n_ops
        assert _instrument(registry, "messages_sent_total", "out", name) == n_ops
        assert not any(any(columns) for columns in probe._columns.values())
