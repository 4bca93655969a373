"""The columnar probe fold against the per-record fold it replaced.

``ObservationProbe`` keeps each (operation, interface)'s records as
columns and folds them in batches, one telemetry batch per window run.
``RecordListProbe`` (``tests/metrics/reference_probe_fold.py``) is the
probe as it was: one tuple per operation, folded record by record.
Both are driven by the same seeded stream of sends and receives -- data
and control messages, several components and interfaces, unknown
latencies, clock stamps behind the registry clock, 1 us windows --
folded at the same random points mid-stream, and must leave the same
timers, the same reports, the same registry (instrument creation order
and window series included) and the same ``metrics_digest``.
"""

import json
import random
from types import SimpleNamespace

import pytest

from repro.core import Component, Message, ObservationProbe
from repro.core.contracts import InterfaceContract
from repro.core.messages import CONTROL, DATA
from repro.core.observation import LEVELS
from repro.metrics import telemetry
from repro.metrics.export import metrics_digest
from repro.metrics.telemetry import enable_telemetry

from tests.metrics.reference_probe_fold import RecordListProbe

N_COMPONENTS = 3
N_OPS = 1_500
SENDS = ("out", "aux", "ctl")
RECEIVES = ("in", "side")
CONTRACT = InterfaceContract(deadline_ns=4_000, ordered=True, name="in-contract")


def _stream(seed):
    """Seeded operations and fold points, shared by both probe kinds."""
    rng = random.Random(seed)
    now = 0
    ops = []
    for seq in range(1, N_OPS + 1):
        now += rng.choice((0, 0, 0, 1, 1, 3, 12))
        roll = rng.random()
        if roll < 0.03:
            ops.append(("fold", rng.randrange(N_COMPONENTS)))
            continue
        if roll < 0.04:
            ops.append(("report", rng.randrange(N_COMPONENTS)))
            continue
        if roll < 0.045:
            ops.append(("finish", now * 1_000))
            continue
        if roll < 0.047:
            ops.append(("clear",))
            continue
        component = rng.randrange(N_COMPONENTS)
        control = rng.random() < 0.1
        # A stamp up to 8 us back (sometimes behind the registry
        # clock), and now and then none at all.
        sent = None if rng.random() < 0.05 else max(0, now - rng.randrange(0, 8))
        message = Message(
            payload=None if control else bytes(rng.randrange(0, 96)),
            kind=CONTROL if control else DATA,
            src="p",
            seq=rng.randrange(1, seq + 1),
            sent_at_us=sent,
        )
        duration = rng.randrange(0, 50_000)
        if rng.random() < 0.5:
            ops.append(("send", component, rng.choice(SENDS), message, duration))
        else:
            # The receiver's clock may run behind the sender's stamp.
            now_us = None if rng.random() < 0.05 else max(0, now - rng.randrange(0, 3))
            ops.append(("receive", component, rng.choice(RECEIVES), message, duration, now_us))
    return ops


def _probes(probe_class, with_telemetry, monkeypatch):
    containers = {}
    for i in range(N_COMPONENTS):
        comp = Component(f"c{i}")
        for name in RECEIVES:
            comp.add_provided(name)
        for name in SENDS:
            comp.add_required(name)
        if i == 0:
            comp.set_contract("in", CONTRACT)
        probe = probe_class(comp)
        containers[comp.name] = SimpleNamespace(component=comp, probe=probe, extra={})
    registry = None
    if with_telemetry:
        monkeypatch.setattr(telemetry, "DEFAULT_WINDOW_NS", 1_000)
        registry = enable_telemetry(SimpleNamespace(containers=containers))
    return [c.probe for c in containers.values()], registry


def _timers(probe):
    return [
        ("send", probe.send_timer.snapshot()),
        ("receive", probe.recv_timer.snapshot()),
        ("latency", probe.latency_timer.snapshot()),
        ("send_by_iface", [(k, t.snapshot()) for k, t in probe.send_timers_by_iface.items()]),
        ("recv_by_iface", [(k, t.snapshot()) for k, t in probe.recv_timers_by_iface.items()]),
    ]


def _run(probe_class, ops, with_telemetry, monkeypatch):
    """Drive the stream; returns everything observable, in order."""
    probes, registry = _probes(probe_class, with_telemetry, monkeypatch)
    seen = []
    for op in ops:
        if op[0] == "send":
            _, i, iface, message, duration = op
            probes[i].record_send(iface, message, duration)
        elif op[0] == "receive":
            _, i, iface, message, duration, now_us = op
            probes[i].record_receive(iface, message, duration, now_us=now_us)
        elif op[0] == "fold":
            probes[op[1]]._fold()
        elif op[0] == "report":
            seen.append(json.dumps(probes[op[1]].report("middleware"), default=str))
        elif registry is not None and op[0] == "finish":
            registry.finish(op[1])
        elif registry is not None and op[0] == "clear":
            registry.clear()
    if registry is not None:
        registry.finish()
        # Insertion order too: the registry creates instruments, and
        # the cut fills each window, in the order the fold feeds them.
        seen.append(json.dumps(registry.snapshot()))
        seen.append(list(registry._entries))
        seen.append(metrics_digest(registry))
    for probe in probes:
        seen.append(_timers(probe))
        seen.append([json.dumps(probe.report(level), default=str) for level in LEVELS])
    return seen


@pytest.mark.parametrize("with_telemetry", [False, True], ids=["timers", "telemetry"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_columnar_fold_matches_the_per_record_fold(seed, with_telemetry, monkeypatch):
    ops = _stream(seed)
    columnar = _run(ObservationProbe, ops, with_telemetry, monkeypatch)
    reference = _run(RecordListProbe, ops, with_telemetry, monkeypatch)
    assert columnar == reference


def test_a_clock_reset_with_records_pending(monkeypatch):
    """``clear()`` restarts the registry clock while records wait in the
    columns, so one column's times go back: the fold walks them one by
    one instead of bisecting."""
    def send(now_us, duration):
        return ("send", 0, "out", Message(payload=bytes(8), sent_at_us=now_us), duration)

    ops = [send(50 + i, 100 + i) for i in range(6)] + [("clear",)]
    ops += [send(1 + 2 * i, 200 + i) for i in range(6)]
    columnar = _run(ObservationProbe, ops, True, monkeypatch)
    assert columnar == _run(RecordListProbe, ops, True, monkeypatch)


def test_the_stream_reaches_every_fold_case(monkeypatch):
    """The streams above fold and clear the registry mid-stream, split
    columns into many window runs, and carry control messages and
    unknown latencies."""
    ops = _stream(1)
    kinds = {op[0] for op in ops}
    assert kinds == {"send", "receive", "fold", "report", "finish", "clear"}
    messages = [op[3] for op in ops if op[0] in ("send", "receive")]
    assert any(m.kind == CONTROL for m in messages)
    assert any(m.sent_at_us is None for m in messages)
    assert any(op[5] is None for op in ops if op[0] == "receive")
    probes, registry = _probes(ObservationProbe, True, monkeypatch)
    for op in ops:
        if op[0] == "send":
            probes[op[1]].record_send(op[2], op[3], op[4])
        elif op[0] == "receive":
            probes[op[1]].record_receive(op[2], op[3], op[4], now_us=op[5])
    ts = [t for probe in probes for columns in probe._columns.values() for t in columns[0]]
    assert len({t // registry.window_ns for t in ts}) > 100
