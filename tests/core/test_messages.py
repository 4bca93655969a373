"""Unit tests for messages and payload sizing."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import Message, payload_nbytes
from repro.core.messages import MESSAGE_HEADER_BYTES
from repro.recovery.durable import message_from_record, message_to_record


def test_payload_nbytes_ndarray():
    assert payload_nbytes(np.zeros((8, 8), dtype=np.float32)) == 256


def test_payload_nbytes_bytes_and_str():
    assert payload_nbytes(b"abcd") == 4
    assert payload_nbytes("héllo") == 6  # utf-8
    assert payload_nbytes(None) == 0


def test_payload_nbytes_containers():
    assert payload_nbytes([b"ab", b"cd"]) == 4
    assert payload_nbytes({"k": np.zeros(4, dtype=np.uint8)}) >= 4


def test_message_size_estimated_with_header():
    m = Message(payload=b"x" * 100)
    assert m.size_bytes == 100 + MESSAGE_HEADER_BYTES


def test_message_explicit_size_respected():
    m = Message(payload=b"x", size_bytes=5000)
    assert m.size_bytes == 5000


def test_message_kind_validated():
    with pytest.raises(ValueError, match="unknown message kind"):
        Message(payload=None, kind="bogus")


def test_message_negative_size_rejected():
    with pytest.raises(ValueError, match="negative"):
        Message(payload=None, size_bytes=-2)


def _sized_message():
    return Message(
        payload={"frame": 3, "coefs": np.arange(8, dtype=np.float32)},
        tag="batch",
        src="Fetch",
        src_interface="fetchIdct1",
        seq=4,
        size_bytes=1234,
        sent_at_us=17,
        span=9,
        cause=5,
        dseq=2,
    )


def _fields(m):
    return {f.name: getattr(m, f.name) for f in dataclasses.fields(Message) if f.name != "payload"}


def test_message_has_slots_and_refuses_unknown_attributes():
    m = _sized_message()
    assert not hasattr(m, "__dict__")
    with pytest.raises(AttributeError):
        m.colour = "red"


def test_message_pickle_round_trip():
    m = _sized_message()
    back = pickle.loads(pickle.dumps(m))
    assert _fields(back) == _fields(m)
    np.testing.assert_array_equal(back.payload["coefs"], m.payload["coefs"])


def test_message_replace_keeps_the_size_without_walking(monkeypatch):
    m = _sized_message()
    monkeypatch.setattr(
        "repro.core.messages.payload_nbytes",
        lambda payload: pytest.fail("replace walked a sized payload"),
    )
    copy = dataclasses.replace(m)
    assert copy is not m and copy.payload is m.payload
    assert _fields(copy) == _fields(m)


def test_message_record_round_trip():
    m = _sized_message()
    back = message_from_record(message_to_record(m))
    # The journal keeps everything but the send timestamp.
    assert _fields(back) == {**_fields(m), "sent_at_us": None}
    assert back.payload is m.payload
