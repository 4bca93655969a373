"""Envelope ordering and the staging heap's duplicate-key guard.

An envelope is its own key tuple followed by its delivery action,
``(recv_time, send_time, src, src_interface, seq, deliver, *args)``, so
the staging heap orders envelopes with the built-in tuple comparison.
The property test holds both release paths, fed through both push paths
in scrambled order, to ``sorted(e.key)`` -- a reference that does not
depend on how envelopes compare.
"""

import random
import sys

import pytest

from repro.sim.mailbox import KEY_FIELDS, Envelope, Staging


def test_envelope_is_its_key_plus_deliver():
    deliver = lambda: None  # noqa: E731
    env = Envelope(10, 4, "c" + str(1), "out", 3, deliver)
    assert env == (10, 4, "c1", "out", 3, deliver)
    assert env.key == (10, 4, "c1", "out", 3) and type(env.key) is tuple
    assert [getattr(env, f) for f in KEY_FIELDS] == list(env.key)
    assert env.deliver is deliver
    assert env.src is sys.intern("c1")
    assert not hasattr(env, "__dict__")
    with pytest.raises(AttributeError):
        env.recv_time = 0
    assert "__lt__" not in Envelope.__dict__
    assert env.args == ()
    # A shared handler plus its arguments: the key is unchanged.
    with_args = Envelope(10, 4, "c1", "out", 3, print, 7, "x")
    assert with_args == (10, 4, "c1", "out", 3, print, 7, "x")
    assert with_args.deliver is print and with_args.args == (7, "x")
    assert with_args.key == env.key


def test_push_rejects_duplicate_key():
    staging = Staging()
    staging.push(Envelope(5, 1, "a", "out", 0, lambda: None))
    with pytest.raises(ValueError, match=r"duplicate envelope key \(5, 1, 'a', 'out', 0\)"):
        staging.push(Envelope(5, 1, "a", "out", 0, lambda: None))


@pytest.mark.parametrize("staged", (0, 40))
def test_push_many_rejects_duplicate_key(staged):
    # staged=0 takes the heapify path, staged=40 the per-item sift path.
    staging = Staging()
    staging.push_many(Envelope(100 + i, 0, "z", "out", i, lambda: None) for i in range(staged))
    chunk = [Envelope(7, 0, "a", "out", 0, lambda: None) for _ in range(2)]
    with pytest.raises(ValueError, match="must be unique per logical send"):
        staging.push_many(chunk)


@pytest.mark.parametrize("release", ("release_below", "release_batched"))
def test_release_rejects_duplicate_key_pushes_missed(release):
    # Pushing A then A' under an earlier X never compares A with A'; the
    # pop that moves them under each other does.
    staging = Staging()
    for env in (
        Envelope(1, 0, "x", "out", 0, lambda: None),
        Envelope(5, 0, "a", "out", 0, lambda: None),
        Envelope(5, 0, "a", "out", 0, lambda: None),
    ):
        staging.push(env)
    with pytest.raises(ValueError, match=r"duplicate envelope key \(5, 0, 'a', 'out', 0\)"):
        getattr(staging, release)(2, lambda t, cb: None)


# A handler shared by every send: two envelopes with one key compare
# past it into their (comparable) args, so the heap raises nothing.
SHARED = print


def test_push_rejects_duplicate_key_with_a_shared_handler():
    staging = Staging()
    staging.push(Envelope(5, 1, "a", "out", 0, SHARED, 1))
    staging.push(Envelope(5, 1, "a", "out", 0, SHARED, 2))
    with pytest.raises(ValueError, match=r"duplicate envelope key \(5, 1, 'a', 'out', 0\)"):
        staging.release_batched(10, lambda t, cb, *args: None)


@pytest.mark.parametrize("staged", (0, 40))
def test_push_many_rejects_duplicate_key_with_a_shared_handler(staged):
    staging = Staging()
    staging.push_many(Envelope(100 + i, 0, "z", "out", i, SHARED, i) for i in range(staged))
    staging.push_many([Envelope(7, 0, "a", "out", 0, SHARED, j) for j in range(2)])
    with pytest.raises(ValueError, match="must be unique per logical send"):
        staging.release_batched(10**9, lambda t, cb, *args: None)


@pytest.mark.parametrize("release", ("release_below", "release_batched"))
@pytest.mark.parametrize("args", ((), (1,)))
def test_release_rejects_duplicate_key_with_a_shared_handler(release, args):
    # Equal args (or none) make the two envelopes equal tuples; the
    # duplicate sits between unique keys at the same recv_time.
    staging = Staging()
    for env in (
        Envelope(5, 0, "a", "in", 3, SHARED, *args),
        Envelope(5, 0, "a", "out", 0, SHARED, *args),
        Envelope(5, 0, "a", "out", 0, SHARED, *args),
        Envelope(5, 0, "b", "out", 0, SHARED, *args),
    ):
        staging.push(env)
    with pytest.raises(ValueError, match=r"duplicate envelope key \(5, 0, 'a', 'out', 0\)"):
        getattr(staging, release)(6, lambda t, cb, *args: None)


def test_other_comparison_errors_propagate_unchanged():
    staging = Staging()
    staging.push(Envelope(5, 0, "a", "out", 0, lambda: None))
    with pytest.raises(TypeError, match="not supported"):
        staging.push(Envelope(5, 0, "a", "out", None, lambda: None))


def _random_envelopes(rng, log):
    """~300 envelopes with unique keys over few receive times, few
    sources and few interfaces, so most comparisons tie deep into the
    key.  Names are built at run time, so interning is exercised.  Half
    the envelopes carry a closure, half the shared ``log.append`` with
    the key as its argument."""
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
    envs = [
        Envelope(*key, log.append, key) if i % 2 else
        Envelope(*key, lambda key=key: log.append(key))
        for i, key in enumerate(sorted(keys))
    ]
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
    envs = _random_envelopes(rng, log)
    staging = Staging()
    # Two staging phases around a partial release, the way a shard
    # releases below a horizon and then drains later arrivals (all at or
    # past that horizon, as conservative lookahead guarantees).
    horizon = 30
    early, late = [], []
    for e in envs:
        (early if e.recv_time < horizon or rng.random() < 0.5 else late).append(e)
    scheduled = []
    schedule = lambda t, cb, *args: scheduled.append((t, cb, args))  # noqa: E731

    _stage(staging, rng, early)
    first = getattr(staging, release)(horizon, schedule)
    assert first == sum(e.recv_time < horizon for e in envs)
    _stage(staging, rng, late)
    assert getattr(staging, release)(10**9, schedule) == len(envs) - first
    assert len(staging) == 0 and staging.released == len(envs)

    times = [t for t, _, _ in scheduled]
    assert times == sorted(times)
    for _t, cb, args in scheduled:
        cb(*args)
    assert log == sorted(e.key for e in envs)
