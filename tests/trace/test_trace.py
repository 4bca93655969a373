"""Tests for the event-trace extension."""

import pytest

from repro.trace import (
    BEGIN,
    END,
    INSTANT,
    TraceBuffer,
    TraceEvent,
    Tracer,
    intervals,
    read_jsonl,
    summarize_durations,
    write_jsonl,
)
from repro.trace.analysis import busy_fraction


def ev(ts, seq, comp="c", cat="x", name="op", phase=INSTANT, **args):
    return TraceEvent(ts, seq, comp, cat, name, phase, args)


def test_event_validation():
    with pytest.raises(ValueError, match="phase"):
        ev(0, 0, phase="Z")
    with pytest.raises(ValueError, match="negative"):
        ev(-1, 0)


def test_event_ordering_by_time_then_seq():
    events = [ev(20, 1), ev(10, 2), ev(10, 1)]
    assert sorted(events) == [ev(10, 1), ev(10, 2), ev(20, 1)]


def test_event_dict_roundtrip():
    e = ev(5, 1, args_key=3)
    assert TraceEvent.from_dict(e.to_dict()) == e


def test_buffer_drops_oldest_when_full():
    buf = TraceBuffer(capacity=3)
    now = [0]
    tracer = Tracer(buf, "c", lambda: now[0])
    for i in range(5):
        now[0] = i
        tracer.emit("app", "op", INSTANT)
    assert len(buf) == 3
    assert buf.dropped == 2
    assert buf.events()[0].timestamp_ns == 2


def test_tracer_emits_with_clock_and_seq():
    buf = TraceBuffer()
    now = [100]
    tracer = Tracer(buf, "comp", lambda: now[0])
    tracer.emit("middleware", "send", BEGIN, iface="out")
    now[0] = 250
    tracer.emit("middleware", "send", END)
    events = buf.events()
    assert events[0].timestamp_ns == 100 and events[1].timestamp_ns == 250
    assert events[0].seq < events[1].seq
    assert events[0].args == {"iface": "out"}


def test_intervals_matching():
    events = [
        ev(0, 1, name="send", phase=BEGIN),
        ev(10, 2, name="send", phase=END),
        ev(20, 3, name="recv", phase=BEGIN),
        ev(50, 4, name="recv", phase=END),
    ]
    ivals = intervals(events)
    assert len(ivals) == 2
    assert ivals[0].duration_ns == 10
    assert ivals[1].duration_ns == 30


def test_intervals_nested_lifo():
    events = [
        ev(0, 1, name="op", phase=BEGIN),
        ev(5, 2, name="op", phase=BEGIN),
        ev(7, 3, name="op", phase=END),   # closes inner
        ev(20, 4, name="op", phase=END),  # closes outer
    ]
    ivals = intervals(events)
    assert sorted(iv.duration_ns for iv in ivals) == [2, 20]


def test_intervals_end_without_begin_raises():
    with pytest.raises(ValueError, match="END without BEGIN"):
        intervals([ev(0, 1, phase=END)])


def test_summarize_durations():
    events = []
    for i, dur in enumerate((10, 20, 30)):
        events.append(ev(100 * i, 2 * i, name="send", phase=BEGIN))
        events.append(ev(100 * i + dur, 2 * i + 1, name="send", phase=END))
    summary = summarize_durations(intervals(events))
    stats = summary[("c", "send")]
    assert stats["count"] == 3
    assert stats["mean_ns"] == 20
    assert stats["min_ns"] == 10 and stats["max_ns"] == 30


def test_busy_fraction_unions_overlaps():
    events = [
        ev(0, 1, name="compute", phase=BEGIN),
        ev(60, 2, name="compute", phase=END),
        ev(40, 3, name="send", phase=BEGIN),
        ev(80, 4, name="send", phase=END),
    ]
    frac = busy_fraction(intervals(events), "c", span_ns=100)
    assert frac == pytest.approx(0.8)


def test_jsonl_roundtrip(tmp_path):
    events = [ev(i, i, args_val=i) for i in range(10)]
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(events, path) == 10
    assert read_jsonl(path) == events


def test_buffer_capacity_validated():
    with pytest.raises(ValueError):
        TraceBuffer(capacity=0)
