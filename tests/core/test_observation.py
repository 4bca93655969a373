"""Unit tests for probes, observation requests and introspection."""

import pytest

from repro.core import (
    APPLICATION_LEVEL,
    Component,
    MIDDLEWARE_LEVEL,
    Message,
    OS_LEVEL,
    ObservationProbe,
    ObservationRequest,
    format_interfaces,
)
from repro.core.errors import ObservationError
from repro.core.messages import CONTROL, DATA, OBSERVATION


def make_probe():
    c = Component("c")
    c.add_provided("in")
    c.add_required("out")
    return c, ObservationProbe(c)


def data_msg(nbytes=100):
    return Message(payload=b"x" * nbytes)


def test_request_level_validated():
    with pytest.raises(ObservationError):
        ObservationRequest(level="bogus")
    ObservationRequest(level=OS_LEVEL)


def test_probe_counts_data_sends_and_bytes():
    _, probe = make_probe()
    msg = data_msg(100)
    probe.record_send("out", msg, 500)
    probe.record_send("out", msg, 700)
    assert probe.data_sends.value == 2
    assert probe.bytes_sent == 2 * msg.size_bytes
    assert probe.send_timer.count == 2
    assert probe.send_timer.total_ns == 1200


def test_probe_ignores_observation_traffic():
    _, probe = make_probe()
    probe.record_send("introspection", Message(payload=None, kind=OBSERVATION), 100)
    probe.record_receive("introspection", Message(payload=None, kind=OBSERVATION), 100)
    assert probe.data_sends.value == 0
    assert probe.send_timer.count == 0
    assert probe.recv_timer.count == 0


def test_probe_times_control_but_does_not_count_it():
    """EOS messages exercise the middleware timers (they are real sends)
    without polluting the Table 2 application counters."""
    _, probe = make_probe()
    probe.record_send("out", Message(payload=None, kind=CONTROL, tag="eos"), 50)
    assert probe.send_timer.count == 1
    assert probe.data_sends.value == 0


def test_deposits_counted_separately_from_sends():
    _, probe = make_probe()
    probe.record_deposit("display", data_msg(), 10)
    assert probe.deposits.value == 1
    assert probe.data_sends.value == 0


def test_deferred_samples_fold_identically():
    """The record-append hot path defers timer folding; the folded report
    must be indistinguishable from eager per-event recording."""
    _, probe = make_probe()
    msg = data_msg(64)
    stamped = Message(payload=b"x" * 64, sent_at_us=5)
    for i in range(100):
        probe.record_send("out" if i % 3 else "aux", msg, 100 + i)
        probe.record_receive("in", stamped, 200 + i, now_us=10 + i)
    # Records sit unfolded in the columns until a timer is read.
    assert sum(len(columns[3]) for columns in probe._columns.values()) == 200
    report = probe.report(MIDDLEWARE_LEVEL)
    assert not any(any(columns) for columns in probe._columns.values())
    assert report["send"]["count"] == 100
    assert report["send"]["total_ns"] == sum(100 + i for i in range(100))
    assert report["receive"]["count"] == 100
    assert set(report["send_by_interface"]) == {"out", "aux"}
    assert report["send_by_interface"]["aux"]["count"] == 34
    assert report["latency"]["count"] == 100


def test_deferred_samples_survive_interleaved_reads():
    """Reading a timer mid-run folds what is buffered; later samples are
    folded by the next read -- nothing is lost or double-counted."""
    _, probe = make_probe()
    msg = data_msg(64)
    probe.record_send("out", msg, 100)
    assert probe.send_timer.count == 1
    probe.record_send("out", msg, 300)
    probe.record_send("out", msg, 500)
    assert probe.send_timer.count == 3
    assert probe.send_timer.total_ns == 900
    assert probe.send_timers_by_iface["out"].count == 3


def test_middleware_report_shape():
    _, probe = make_probe()
    probe.record_send("out", data_msg(), 100)
    probe.record_receive("in", data_msg(), 250)
    report = probe.report(MIDDLEWARE_LEVEL)
    assert report["send"]["count"] == 1
    assert report["receive"]["mean_ns"] == 250
    assert "out" in report["send_by_interface"]
    assert "in" in report["receive_by_interface"]


def test_application_report_structure_and_counts():
    comp, probe = make_probe()
    probe.record_send("out", data_msg(), 1)
    report = probe.report(APPLICATION_LEVEL)
    assert report["sends"] == 1
    assert report["receives"] == 0
    assert ("in", "provided") in report["structure"]
    assert ("out", "required") in report["structure"]


def test_os_report_uses_adapter_and_probe_timestamps():
    _, probe = make_probe()
    probe.os_adapter = lambda: {"stack_bytes": 1234}
    probe.started_at_us = 100
    probe.ended_at_us = 600
    report = probe.report(OS_LEVEL)
    assert report["stack_bytes"] == 1234
    assert report["exec_time_us"] == 500


def test_unknown_level_rejected():
    _, probe = make_probe()
    with pytest.raises(ObservationError):
        probe.report("bogus")


def test_format_interfaces_matches_figure5():
    idct = Component("IDCT_1")
    idct.add_provided("_fetchIdct1")
    idct.add_required("idctReorder")
    text = format_interfaces(idct)
    assert text.splitlines() == [
        "Interfaces component [IDCT_1]",
        "----------------------------",
        "[Interface] [Type]",
        "introspection provided",
        "_fetchIdct1 provided",
        "introspection required",
        "idctReorder required",
    ]


def test_latency_recorded_from_message_timestamp():
    _, probe = make_probe()
    msg = Message(payload=b"x", sent_at_us=100)
    probe.record_receive("in", msg, 500, now_us=350)
    assert probe.latency_timer.count == 1
    assert probe.latency_timer.mean_ns == 250_000


def test_latency_clamped_for_skewed_clocks():
    """OS21 local clocks can make arrival appear before departure."""
    _, probe = make_probe()
    msg = Message(payload=b"x", sent_at_us=1000)
    probe.record_receive("in", msg, 10, now_us=990)
    assert probe.latency_timer.min_ns == 0


def test_latency_skipped_without_timestamps():
    _, probe = make_probe()
    probe.record_receive("in", Message(payload=b"x"), 10, now_us=None)
    probe.record_receive("in", Message(payload=b"x", sent_at_us=None), 10, now_us=50)
    assert probe.latency_timer.count == 0
