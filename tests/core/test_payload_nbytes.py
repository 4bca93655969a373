"""``payload_nbytes`` checks exact pipeline types first; every payload
must still size exactly as the plain recursive ``isinstance`` chain
(kept here as the reference) sizes it."""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import payload_nbytes


def reference_nbytes(payload):
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple)):
        return sum(reference_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(reference_nbytes(k) + reference_nbytes(v) for k, v in payload.items())
    return int(sys.getsizeof(payload))


class Tagged(np.ndarray):
    """An ndarray subclass, which must take the ``isinstance`` path."""


class Label(str):
    pass


class Count(int):
    pass


class Opaque:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


def arrays():
    dtypes = st.sampled_from([np.uint8, np.int32, np.float32, np.float64, np.complex128])
    shapes = st.lists(st.integers(0, 5), min_size=0, max_size=3).map(tuple)

    def build(args):
        dtype, shape, sub, view = args
        a = np.zeros(shape, dtype=dtype)
        if view and a.ndim:
            a = a[::2]
        return a.view(Tagged) if sub else a

    return st.tuples(dtypes, shapes, st.booleans(), st.booleans()).map(build)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(0, 300).map(Count),
    st.floats(allow_nan=False),
    st.text(),
    st.text().map(Label),
    st.binary(),
    st.binary().map(bytearray),
    st.binary().map(memoryview),
    st.integers().map(Opaque),
    arrays(),
)

keys = st.one_of(st.text(), st.integers(), st.booleans(), st.tuples(st.text(), st.integers()))

payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_matches_the_reference_on_a_payload_zoo(payload):
    assert payload_nbytes(payload) == reference_nbytes(payload)


def test_pipeline_payloads_and_non_ascii_text():
    batch = {"frame": 3, "batch": 1, "coefs": np.zeros((36, 8, 8), dtype=np.float32)}
    for payload in (batch, "déjà vu", "plain", 10**30, -5, True, None, b"", {"é": "ü"}):
        assert payload_nbytes(payload) == reference_nbytes(payload)
