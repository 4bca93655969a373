"""One campaign stream per process and key, shared read-only.

``campaign_stream`` memoizes the stream every campaign of one
``(seed, n_images)`` decodes.  The shared stream must equal a fresh
``generate_stream`` before and after a campaign has run from it, and
campaigns run back to back from it must agree with each other and with
a campaign run from a freshly built stream.
"""

import numpy as np
import pytest

from repro.faults import run_chaos_campaign
from repro.faults.campaign import campaign_stream
from repro.mjpeg.stream import generate_stream


def _assert_same_stream(got, want):
    assert len(got) == len(want)
    assert (got.height, got.width, got.quality) == (want.height, want.width, want.quality)
    for a, b in zip(got, want):
        assert a.index == b.index
        assert a.frame.payload == b.frame.payload
        assert a.frame.n_bits == b.frame.n_bits
        assert np.array_equal(a.frame.nz_index, b.frame.nz_index)
        assert np.array_equal(a.frame.nz_value, b.frame.nz_value)


def test_one_stream_per_key():
    stream = campaign_stream(1, 8)
    assert campaign_stream(1, 8) is stream
    assert campaign_stream(7, 8) is not stream
    assert campaign_stream(1, 9) is not stream


def test_shared_stream_is_read_only():
    stream = campaign_stream(1, 8)
    assert isinstance(stream.records, tuple)
    assert len(stream.records[1:]) == 7
    frame = stream[0].frame
    for array in (frame.nz_index, frame.nz_value):
        with pytest.raises(ValueError):
            array[0] = 1


def test_shared_stream_equals_a_fresh_one_before_and_after_a_campaign():
    fresh = generate_stream(8, 96, 96, quality=75, seed=1)
    _assert_same_stream(campaign_stream(1, 8), fresh)
    assert run_chaos_campaign(seed=1, n_images=8, recover=True).ok
    _assert_same_stream(campaign_stream(1, 8), fresh)


def _fingerprint(result):
    return (
        result.digest,
        result.frames_digest,
        result.schedule,
        result.contract_violations,
        result.contract_trace_events,
    )


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_back_to_back_campaigns_match_a_fresh_stream(seed):
    first = _fingerprint(run_chaos_campaign(seed=seed, n_images=8))
    assert _fingerprint(run_chaos_campaign(seed=seed, n_images=8)) == first
    campaign_stream.cache_clear()
    assert _fingerprint(run_chaos_campaign(seed=seed, n_images=8)) == first
