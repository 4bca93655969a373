"""Determinism and fast-path tests for the event kernel.

The kernel's ordering contract -- fire by (time, scheduling order),
regardless of which internal queue an event rides -- must survive the
O(1) ``pending`` counter, the immediate-queue ``call_soon`` fast path,
tombstone compaction, deadline timers and handle pooling.
"""

import random

from repro.sim.kernel import Kernel


def test_equal_timestamp_fifo_across_call_soon_and_schedule():
    kernel = Kernel()
    log = []
    # interleave the two zero-delay paths; FIFO must hold across both
    kernel.schedule(0, log.append, "s0")
    kernel.call_soon(log.append, "c0")
    kernel.schedule(0, log.append, "s1")
    kernel.call_soon(log.append, "c1")
    kernel.schedule(5, log.append, "later")
    kernel.call_soon(log.append, "c2")
    kernel.run()
    assert log == ["s0", "c0", "s1", "c1", "c2", "later"]


def test_call_soon_from_callback_runs_at_current_time():
    kernel = Kernel()
    log = []

    def outer():
        log.append(("outer", kernel.now))
        kernel.call_soon(lambda: log.append(("inner", kernel.now)))

    kernel.schedule(10, outer)
    kernel.schedule(10, log.append, ("peer", 10))
    kernel.run()
    # the nested call_soon fires after the already-queued same-time peer
    assert log == [("outer", 10), ("peer", 10), ("inner", 10)]


def test_pending_is_exact_through_cancels_and_compaction():
    kernel = Kernel()
    noop = lambda: None  # noqa: E731
    handles = [kernel.schedule(i + 1, noop) for i in range(500)]
    assert kernel.pending() == 500
    for handle in handles[100:]:
        handle.cancel()
    assert kernel.pending() == 100
    # double-cancel must not decrement twice
    handles[100].cancel()
    handles[499].cancel()
    assert kernel.pending() == 100
    executed = kernel.run()
    assert executed == 100
    assert kernel.events_executed == 100
    assert kernel.pending() == 0


def test_compaction_preserves_order():
    kernel = Kernel()
    log = []
    rng = random.Random(99)
    handles = []
    for i in range(400):
        t = rng.randrange(1, 50)
        handles.append(kernel.schedule(t, log.append, (t, i)))
    cancelled = set(rng.sample(range(400), 300))
    for i in cancelled:
        handles[i].cancel()  # enough dead entries to trigger compaction
    kernel.run()
    expected = [
        (t, i) for (t, i) in sorted(
            (h.time, i) for i, h in enumerate(handles) if i not in cancelled
        )
    ]
    assert log == expected


def test_run_until_between_events():
    kernel = Kernel()
    log = []
    kernel.schedule(10, log.append, "a")
    kernel.schedule(20, log.append, "b")
    kernel.run(until=15)
    assert log == ["a"]
    assert kernel.now == 15
    assert kernel.pending() == 1
    kernel.run()
    assert log == ["a", "b"]
    assert kernel.now == 20


def _seeded_workload(kernel, seed):
    """A self-rescheduling workload driven by a seeded RNG; returns the
    fire log."""
    rng = random.Random(seed)
    log = []

    def fire(label, depth):
        log.append((kernel.now, label))
        if depth > 0:
            for j in range(rng.randrange(0, 3)):
                child = f"{label}.{j}"
                if rng.random() < 0.3:
                    kernel.call_soon(fire, child, depth - 1)
                else:
                    kernel.schedule(rng.randrange(0, 7), fire, child, depth - 1)
            if rng.random() < 0.2:
                handle = kernel.schedule(rng.randrange(1, 5), fire, label + ".x", 0)
                handle.cancel()

    for i in range(30):
        kernel.schedule(rng.randrange(0, 20), fire, f"root{i}", 3)
    kernel.run()
    return log


def test_seeded_workload_is_deterministic():
    k1, k2 = Kernel(), Kernel()
    log1 = _seeded_workload(k1, seed=2024)
    log2 = _seeded_workload(k2, seed=2024)
    assert log1 == log2
    assert k1.events_executed == k2.events_executed
    assert k1.now == k2.now
    # timestamps never regress
    times = [t for t, _ in log1]
    assert times == sorted(times)


def test_cancel_after_fire_is_noop_even_with_pooling():
    kernel = Kernel()
    log = []
    first = kernel.schedule(1, log.append, "first")
    kernel.run()
    assert log == ["first"]
    # cancelling the caller's reference to a fired event must not
    # disturb later events
    first.cancel()
    first.cancel()
    kernel.schedule(2, log.append, "second")
    kernel.call_soon(log.append, "soon")
    assert kernel.pending() == 2
    kernel.run()
    assert log == ["first", "soon", "second"]
    assert kernel.pending() == 0


def test_handle_pool_reuse_keeps_results_correct():
    kernel = Kernel()
    fired = []
    # schedule/run repeatedly: every round's handles are fresh
    for round_no in range(20):
        for i in range(50):
            kernel.schedule(i % 5, fired.append, (round_no, i))
        kernel.run()
    assert len(fired) == 20 * 50
    # each round fires its own events in (time, scheduling order)
    for round_no in range(20):
        chunk = [item for item in fired if item[0] == round_no]
        assert chunk == sorted(chunk, key=lambda item: (item[1] % 5, item[1]))


# -- deadline timers -----------------------------------------------------------


def test_timer_shares_ordering_domain_with_schedule():
    kernel = Kernel()
    log = []
    # same instant, interleaved across the insert paths: FIFO by
    # scheduling order must hold regardless of the entry point
    kernel.schedule(100, log.append, "s0")
    kernel.schedule_timer(100, log.append, "t0")
    kernel.schedule(100, log.append, "s1")
    kernel.schedule_timer(100, log.append, "t1")
    kernel.run()
    assert log == ["s0", "t0", "s1", "t1"]
    assert kernel.now == 100


def test_cancelled_timer_never_fires():
    kernel = Kernel()
    fired = []
    handles = [kernel.schedule_timer(5_000, fired.append, i) for i in range(200)]
    keeper = kernel.schedule(7_000, fired.append, "keeper")
    for h in handles:
        h.cancel()
    assert kernel.pending() == 1
    kernel.run()
    assert fired == ["keeper"]
    assert not keeper.cancelled


def test_far_timer_orders_after_nearer_events():
    kernel = Kernel()
    log = []
    kernel.schedule_timer(10, log.append, "near")
    kernel.schedule_timer(10_000_000, log.append, "far")
    kernel.schedule(5_000, log.append, "mid")
    kernel.run()
    assert log == ["near", "mid", "far"]
    assert kernel.now == 10_000_000


def test_timer_cancel_interleaved_with_regular_events():
    kernel = Kernel()
    log = []

    def deliver(i):
        log.append(("deliver", i, kernel.now))
        if pending_timers:
            pending_timers.pop().cancel()

    pending_timers = []
    for i in range(50):
        pending_timers.append(kernel.schedule_timer(10_000, log.append, ("timeout", i)))
        kernel.schedule(100 * (i + 1), deliver, i)
    kernel.run()
    delivered = [e for e in log if e[0] == "deliver"]
    timeouts = [e for e in log if e[0] == "timeout"]
    assert len(delivered) == 50
    # each delivery cancelled one deadline; none should have fired
    assert timeouts == []
    assert kernel.pending() == 0


def _stored(kernel):
    return len(kernel._heap) + len(kernel._imm)


def test_tombstones_stay_bounded_after_mass_cancels():
    kernel = Kernel()
    log = []
    rng = random.Random(7)
    tags = list(range(5_000))
    handles = [kernel.schedule(rng.randrange(1, 10_000), log.append, t) for t in tags]
    tags += [-i for i in range(1, 200)]
    handles += [kernel.call_soon(log.append, -i) for i in range(1, 200)]
    survivors = set(rng.sample(range(len(handles)), 150))
    for i, handle in enumerate(handles):
        if i not in survivors:
            handle.cancel()
            # lazy cancel, but compaction keeps dead entries below the live ones
            assert _stored(kernel) <= 2 * kernel.pending() + 64
    assert kernel.pending() == 150
    kernel.run()
    assert sorted(log) == sorted(tags[i] for i in survivors)
