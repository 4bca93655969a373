"""Interface contracts and the live checker.

Level 3/4 contracts (ordering, QoS) as declarative interface
attachments: validation at construction, attachment rules on the
component, and the checker's three violation sinks (registry counter,
``violations`` dict, causal-trace INSTANT event) for every clause.
"""

from types import SimpleNamespace

import pytest

from repro.core import Component, ConnectionError_, Message, ObservationProbe
from repro.core.contracts import (
    DEADLINE,
    InterfaceContract,
    ORDERING,
    RATE,
    ContractChecker,
)
from repro.core.interfaces import OBSERVATION_INTERFACE
from repro.metrics import telemetry
from repro.metrics.telemetry import MetricsRegistry, collect_telemetry, enable_telemetry
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly
from repro.runtime import SmpSimRuntime
from repro.trace.events import INSTANT
from repro.trace.tracer import enable_tracing


def _msg(seq=0, src="prod", span=7):
    return SimpleNamespace(seq=seq, src=src, span=span)


class _SpyTracer:
    def __init__(self):
        self.events = []

    def emit(self, category, name, phase=INSTANT, **args):
        self.events.append((category, name, phase, args))


def _checker(contract, tracer=None, window_ns=1_000, side="receive"):
    reg = MetricsRegistry(window_ns=window_ns)
    contracts = {"in": contract}
    checker = ContractChecker(
        "cons",
        contracts if side == "receive" else {},
        contracts if side == "send" else {},
        reg,
        extra={"tracer": tracer},
    )
    return checker, reg


# -- the contract dataclass --------------------------------------------------


def test_contract_validation():
    with pytest.raises(ValueError, match="deadline_ns"):
        InterfaceContract(deadline_ns=0)
    with pytest.raises(ValueError, match="deadline_ns"):
        InterfaceContract(deadline_ns=-5)
    with pytest.raises(ValueError, match="min_rate_hz"):
        InterfaceContract(min_rate_hz=0)
    with pytest.raises(ValueError, match="max_rate_hz"):
        InterfaceContract(max_rate_hz=-1.0)
    with pytest.raises(ValueError, match="exceeds"):
        InterfaceContract(min_rate_hz=100.0, max_rate_hz=10.0)


def test_to_dict_is_sparse():
    assert InterfaceContract().to_dict() == {}
    full = InterfaceContract(
        deadline_ns=5_000, min_rate_hz=1.0, max_rate_hz=2.0, ordered=True, name="qos"
    )
    assert full.to_dict() == {
        "name": "qos",
        "deadline_ns": 5_000,
        "min_rate_hz": 1.0,
        "max_rate_hz": 2.0,
        "ordered": True,
    }


def test_set_contract_attachment_rules():
    c = Component("cons")
    c.add_provided("in")
    contract = InterfaceContract(deadline_ns=1_000)
    assert c.set_contract("in", contract) is c  # chains
    assert c.provided["in"].contract is contract
    with pytest.raises(ConnectionError_, match="no interface"):
        c.set_contract("nope", contract)
    with pytest.raises(ConnectionError_, match="observation"):
        c.set_contract(OBSERVATION_INTERFACE, contract)


# -- deadline clause ---------------------------------------------------------


def test_deadline_violation_hits_all_three_sinks():
    tracer = _SpyTracer()
    checker, reg = _checker(InterfaceContract(deadline_ns=5_000), tracer=tracer)
    checker.on_receive("in", _msg(seq=1), latency_ns=4_000, ts_ns=100)  # within
    checker.on_receive("in", _msg(seq=2), latency_ns=5_000, ts_ns=200)  # exactly at
    assert checker.violations == {}
    checker.on_receive("in", _msg(seq=3, span=99), latency_ns=5_001, ts_ns=300)
    assert checker.violations == {("in", DEADLINE): 1}
    counter = reg.counter(
        "contract_violations_total", component="cons", iface="in", kind=DEADLINE
    )
    assert counter.value == 1
    (event,) = tracer.events
    assert event[:3] == ("contract", "violation", INSTANT)
    assert event[3]["iface"] == "in" and event[3]["kind"] == DEADLINE
    assert event[3]["latency_ns"] == 5_001 and event[3]["span"] == 99


# -- ordering clause ---------------------------------------------------------


def test_ordering_trips_on_duplicates_and_reorderings():
    checker, _ = _checker(InterfaceContract(ordered=True))
    for seq in (1, 2, 5):  # gaps are fine: monotone per sender
        checker.on_receive("in", _msg(seq=seq), latency_ns=0, ts_ns=seq)
    assert checker.violations == {}
    checker.on_receive("in", _msg(seq=5), latency_ns=0, ts_ns=10)  # duplicate
    checker.on_receive("in", _msg(seq=3), latency_ns=0, ts_ns=11)  # reordering
    assert checker.violations == {("in", ORDERING): 2}


def test_ordering_is_per_sender():
    checker, _ = _checker(InterfaceContract(ordered=True))
    checker.on_receive("in", _msg(seq=9, src="a"), latency_ns=0, ts_ns=1)
    checker.on_receive("in", _msg(seq=1, src="b"), latency_ns=0, ts_ns=2)
    assert checker.violations == {}  # b's stream is independent of a's


def test_uncontracted_interface_is_ignored():
    checker, _ = _checker(InterfaceContract(ordered=True, deadline_ns=1))
    checker.on_receive("other", _msg(seq=1), latency_ns=10**9, ts_ns=1)
    checker.on_receive("other", _msg(seq=1), latency_ns=10**9, ts_ns=2)
    checker.on_send("other", _msg(), ts_ns=3)
    assert checker.violations == {}


# -- rate clauses (driven through on_window, like the registry does) ---------


def test_max_rate_checked_on_every_window():
    # 1 kHz ceiling over 1 us windows -> more than 1 message per window trips
    checker, _ = _checker(InterfaceContract(max_rate_hz=1_000.0), window_ns=1_000_000)
    for i in range(3):
        checker.on_receive("in", _msg(seq=i), latency_ns=0, ts_ns=100 + i)
    checker.on_window(0, 0, 1_000_000, final=False)
    assert checker.violations == {("in", RATE): 1}
    # final windows still judge max
    checker.on_receive("in", _msg(seq=10), latency_ns=0, ts_ns=1_000_100)
    checker.on_receive("in", _msg(seq=11), latency_ns=0, ts_ns=1_000_200)
    checker.on_window(1, 1_000_000, 2_000_000, final=True)
    assert checker.violations == {("in", RATE): 2}


def test_min_rate_skips_first_and_final_windows():
    checker, _ = _checker(InterfaceContract(min_rate_hz=2_000_000.0), window_ns=1_000_000)
    checker.on_receive("in", _msg(seq=1), latency_ns=0, ts_ns=500)
    checker.on_window(0, 0, 1_000_000, final=False)  # first window: warm-up
    assert checker.violations == {}
    checker.on_receive("in", _msg(seq=2), latency_ns=0, ts_ns=1_000_500)
    checker.on_window(1, 1_000_000, 2_000_000, final=False)  # interior: judged
    assert checker.violations == {("in", RATE): 1}
    checker.on_window(2, 2_000_000, 3_000_000, final=True)  # final: drain
    assert checker.violations == {("in", RATE): 1}


def test_min_rate_silent_before_any_traffic():
    checker, _ = _checker(InterfaceContract(min_rate_hz=1_000.0))
    checker.on_window(5, 5_000, 6_000, final=False)
    assert checker.violations == {}


def test_send_side_rate_contract():
    checker, _ = _checker(
        InterfaceContract(max_rate_hz=1_000.0), window_ns=1_000_000, side="send"
    )
    for i in range(4):
        checker.on_send("in", _msg(seq=i), ts_ns=10 + i)
    checker.on_window(0, 0, 1_000_000, final=False)
    assert checker.violations == {("in", RATE): 1}


def test_min_rate_judges_silent_windows_at_the_cut(monkeypatch):
    """A 2 kHz floor over 1 ms windows: three messages in each of
    windows 0-2 and 9-11, none in 3-8.  The cut judges every interior
    window, so each silent one is a violation, counted in its window."""
    comp = Component("cons")
    comp.add_provided("in")
    comp.set_contract("in", InterfaceContract(min_rate_hz=2_000.0))
    probe = ObservationProbe(comp)
    rt = SimpleNamespace(containers={"cons": SimpleNamespace(component=comp, probe=probe, extra={})})
    monkeypatch.setattr(telemetry, "DEFAULT_WINDOW_NS", 1_000_000)
    enable_telemetry(rt)
    seq = 0
    for window in (0, 1, 2, 9, 10, 11):
        for k in range(3):
            seq += 1
            now_us = window * 1_000 + 100 * k
            message = Message(payload=b"x", sent_at_us=now_us, seq=seq, src="prod")
            probe.record_receive("in", message, 10, now_us=now_us)
    registry = collect_telemetry(rt)
    assert probe.checker.violations == {("in", RATE): 6}
    iid = "contract_violations_total{component=cons,iface=in,kind=rate}"
    assert [w.index for w in registry.windows if iid in w.data] == [3, 4, 5, 6, 7, 8]


def _violation_trace(telemetry_first: bool):
    """A 2-image decode whose IDCT inputs carry a 1 ns deadline that
    every data message misses, with the two planes enabled in either
    order."""
    app = build_smp_assembly(generate_stream(2, 96, 96, quality=75, seed=1))
    for i in range(1, 4):
        app.components[f"IDCT_{i}"].set_contract(
            f"_fetchIdct{i}", InterfaceContract(deadline_ns=1)
        )
    rt = SmpSimRuntime()
    rt.deploy(app)
    if telemetry_first:
        enable_telemetry(rt)
        buffer = enable_tracing(rt)
    else:
        buffer = enable_tracing(rt)
        enable_telemetry(rt)
    rt.start()
    rt.wait()
    registry = collect_telemetry(rt)
    rt.stop()
    received = sum(
        inst.value for kind, name, labels, inst in registry.instruments()
        if name == "messages_received_total" and labels["component"].startswith("IDCT")
    )
    return buffer.rows(), received


def test_plane_order_keeps_every_violation_row():
    rows, received = _violation_trace(telemetry_first=False)
    violations = [r for r in rows if r[3:5] == ("contract", "violation")]
    assert received and len(violations) == received
    assert _violation_trace(telemetry_first=True) == (rows, received)


# -- summary -----------------------------------------------------------------


def test_summary_shape():
    checker, _ = _checker(InterfaceContract(deadline_ns=5_000, ordered=True))
    checker.on_receive("in", _msg(seq=2), latency_ns=9_000, ts_ns=1)
    checker.on_receive("in", _msg(seq=2), latency_ns=9_000, ts_ns=2)
    summary = checker.summary()
    assert summary["contracts"] == {"in": {"deadline_ns": 5_000, "ordered": True}}
    assert summary["violations"] == 3  # 2 deadline + 1 ordering
    assert summary["violations_by_interface"] == {
        "in": {DEADLINE: 2, ORDERING: 1}
    }
