"""Unit tests for messages and payload sizing."""

import numpy as np
import pytest

from repro.core import Message, payload_nbytes
from repro.core.messages import MESSAGE_HEADER_BYTES


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
