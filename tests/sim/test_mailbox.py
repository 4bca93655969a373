"""Envelope ordering and the staging heap's duplicate-key guard.

An envelope is one plain tuple, its key followed by its delivery
action, ``(recv_time, send_time, src, src_interface, seq,
handler_index, *args)``, so the staging heap orders envelopes with the
built-in tuple comparison and a release calls the handler the index
names in the table it is given.  The property test holds both release
paths, fed through both push paths in scrambled order, to
``sorted(key)`` -- a reference that does not depend on how envelopes
compare.
"""

import pickle
import random

import pytest

from repro.sim.mailbox import KEY_FIELDS, Staging

def collect(into):
    """A ``deliver`` that keeps each release as ``(t, handler, args)``."""
    return lambda t, handler, *args: into.append((t, handler, args))


def test_envelope_is_its_key_plus_deliver():
    env = (10, 4, "c" + str(1), "out", 3, 1, 7, "x")
    assert len(KEY_FIELDS) == 5 and env[:5] == (10, 4, "c1", "out", 3)
    # The form that is staged is the form that crosses a worker pipe.
    assert pickle.loads(pickle.dumps(env, pickle.HIGHEST_PROTOCOL)) == env
    staging = Staging()
    staging.push(env)
    released = []
    handlers = (print, repr)
    assert staging.release_below(11, collect(released), handlers) == 1
    # Index 1 of the table, with the arguments after it.
    assert released == [(10, repr, (7, "x"))]


def _two(key, *args_pair):
    """Two envelopes with one key, handler 0, argument tuples ``args_pair``."""
    return [(*key, 0, *args) for args in args_pair]


def test_push_rejects_duplicate_key():
    # Arguments that do not compare make the heap raise TypeError past
    # the equal key: push names the key.
    staging = Staging()
    first, second = _two((5, 1, "a", "out", 0), (object(),), (object(),))
    staging.push(first)
    with pytest.raises(ValueError, match=r"duplicate envelope key \(5, 1, 'a', 'out', 0\)"):
        staging.push(second)


@pytest.mark.parametrize("staged", (0, 40))
def test_push_many_rejects_duplicate_key(staged):
    # staged=0 takes the heapify path, staged=40 the per-item sift path.
    staging = Staging()
    staging.push_many((100 + i, 0, "z", "out", i, 0) for i in range(staged))
    chunk = _two((7, 0, "a", "out", 0), (object(),), (object(),))
    with pytest.raises(ValueError, match="must be unique per logical send"):
        staging.push_many(chunk)


@pytest.mark.parametrize("release", ("release_below", "release_batched"))
def test_release_rejects_duplicate_key_pushes_missed(release):
    # Pushing A then A' under an earlier X never compares A with A'; the
    # pop that moves them under each other does.
    staging = Staging()
    for env in [(1, 0, "x", "out", 0, 0, object())] + _two(
        (5, 0, "a", "out", 0), (object(),), (object(),)
    ):
        staging.push(env)
    with pytest.raises(ValueError, match=r"duplicate envelope key \(5, 0, 'a', 'out', 0\)"):
        getattr(staging, release)(2, collect([]), (print,))


# One handler index shared by every send: two envelopes with one key
# compare past it into their (comparable) args, so the heap raises
# nothing.
SHARED = 0


def test_push_rejects_duplicate_key_with_a_shared_handler():
    staging = Staging()
    staging.push((5, 1, "a", "out", 0, SHARED, 1))
    staging.push((5, 1, "a", "out", 0, SHARED, 2))
    with pytest.raises(ValueError, match=r"duplicate envelope key \(5, 1, 'a', 'out', 0\)"):
        staging.release_batched(10, collect([]), (print,))


@pytest.mark.parametrize("staged", (0, 40))
def test_push_many_rejects_duplicate_key_with_a_shared_handler(staged):
    staging = Staging()
    staging.push_many((100 + i, 0, "z", "out", i, SHARED, i) for i in range(staged))
    staging.push_many([(7, 0, "a", "out", 0, SHARED, j) for j in range(2)])
    with pytest.raises(ValueError, match="must be unique per logical send"):
        staging.release_batched(10**9, collect([]), (print,))


@pytest.mark.parametrize("release", ("release_below", "release_batched"))
@pytest.mark.parametrize("args", ((), (1,)))
def test_release_rejects_duplicate_key_with_a_shared_handler(release, args):
    # Equal args (or none) make the two envelopes equal tuples; the
    # duplicate sits between unique keys at the same recv_time.
    staging = Staging()
    for env in (
        (5, 0, "a", "in", 3, SHARED, *args),
        (5, 0, "a", "out", 0, SHARED, *args),
        (5, 0, "a", "out", 0, SHARED, *args),
        (5, 0, "b", "out", 0, SHARED, *args),
    ):
        staging.push(env)
    with pytest.raises(ValueError, match=r"duplicate envelope key \(5, 0, 'a', 'out', 0\)"):
        getattr(staging, release)(6, collect([]), (print,))


def test_other_comparison_errors_propagate_unchanged():
    staging = Staging()
    staging.push((5, 0, "a", "out", 0, 0))
    with pytest.raises(TypeError, match="not supported"):
        staging.push((5, 0, "a", "out", None, 0))


def _random_envelopes(rng):
    """~300 envelopes with unique keys over few receive times, few
    sources and few interfaces, so most comparisons tie deep into the
    key.  Each carries its key as the argument of one of two handler
    indices."""
    keys = set()
    while len(keys) < 300:
        recv = rng.randrange(4) * 10 + 10
        keys.add((
            recv,
            recv - rng.randrange(3),
            "c" + str(rng.randrange(5)),
            "if" + str(rng.randrange(3)),
            rng.randrange(8),
        ))
    # Sorted first: set order varies with the string hash seed.
    envs = [(*key, i % 2, key) for i, key in enumerate(sorted(keys))]
    rng.shuffle(envs)
    return envs


def _stage(staging, rng, envs):
    """Push ``envs`` through a scrambled mix of ``push`` and
    ``push_many`` chunks (small and large, so both of its paths run)."""
    i = 0
    while i < len(envs):
        n = rng.choice((1, 1, 3, 40))
        chunk = envs[i:i + n]
        if n == 1:
            staging.push(chunk[0])
        else:
            assert staging.push_many(iter(chunk)) == len(chunk)
        i += n


@pytest.mark.parametrize("release", ("release_below", "release_batched"))
@pytest.mark.parametrize("seed", (1, 7, 42))
def test_release_order_is_sorted_key_order(seed, release):
    rng = random.Random(seed)
    log = []
    handlers = (log.append, lambda key: log.append(key))
    envs = _random_envelopes(rng)
    staging = Staging()
    # Two staging phases around a partial release, the way a shard
    # releases below a horizon and then drains later arrivals (all at or
    # past that horizon, as conservative lookahead guarantees).
    horizon = 30
    early, late = [], []
    for e in envs:
        (early if e[0] < horizon or rng.random() < 0.5 else late).append(e)
    scheduled = []

    _stage(staging, rng, early)
    first = getattr(staging, release)(horizon, collect(scheduled), handlers)
    assert first == sum(e[0] < horizon for e in envs)
    _stage(staging, rng, late)
    assert getattr(staging, release)(10**9, collect(scheduled), handlers) == len(envs) - first
    assert len(staging) == 0 and staging.released == len(envs)

    times = [t for t, _, _ in scheduled]
    assert times == sorted(times)
    for _t, handler, args in scheduled:
        handler(*args)
    assert log == sorted(e[:5] for e in envs)
