"""Durable exactly-once: cold restore from disk, in one process.

The tentpole oracle in miniature, without spawning OS processes (that is
``test_kill9.py``): a runtime dies mid-stream with an unhandled crash
fault and *everything in memory is discarded* -- a fresh application,
fresh runtime and fresh :class:`RecoveryManager` pointed at the same
durable directory must rebuild the consistent cut and finish the stream
exactly-once.  Plus the PR 4 satellite extended to the durable path:
deadline timers on the 256-slot timer wheel must not leak across a
*disk* restore, and a cold restore on the sharded runtime replays
across the shard cut exactly once.
"""

import numpy as np
import pytest

from repro.core import Application, CONTROL
from repro.core.component import Component
from repro.core.errors import InjectedFault
from repro.faults import FaultInjector, FaultPlan
from repro.recovery import DurableError, DurableStore, FrameStore, RecoveryManager
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime

from tests.recovery.conftest import make_recoverable_pipeline

N = 20
CONFIG = {"app": "recpipe", "n": N}


def _install(root, app, checkpoint_interval=4, make=SmpSimRuntime):
    rt = make()
    rt.deploy(app)
    store = DurableStore(str(root), config=CONFIG)
    recovery = RecoveryManager(
        checkpoint_interval=checkpoint_interval, durable=store
    ).install(rt)
    return rt, recovery


def _crash_and_abandon(root, crash_at=13, make=SmpSimRuntime):
    """Incarnation one: run until an unsupervised crash fault kills the
    whole run mid-stream.  Nothing in memory survives past this call --
    only the durable directory does (``close()`` without a final
    checkpoint stands in for the page cache a ``kill -9`` leaves)."""
    app, sink = make_recoverable_pipeline(N)
    rt, recovery = _install(root, app, make=make)
    FaultInjector(FaultPlan(seed=1).crash("cons", on_receive=crash_at)).install(rt)
    rt.start()
    with pytest.raises(InjectedFault):
        rt.wait()
    partial = list(sink.received)
    recovery.close()
    return partial


def test_cold_restore_finishes_the_stream_exactly_once(tmp_path):
    partial = _crash_and_abandon(tmp_path)
    assert 0 < len(partial) < N  # genuinely died mid-stream

    # Incarnation two: fresh everything, same directory.
    app, sink = make_recoverable_pipeline(N)
    rt, recovery = _install(tmp_path, app)
    assert recovery.cold_restored
    assert recovery.restores == 1
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(N))  # no loss, no duplicates
    assert recovery.deduped > 0  # the rolled-back producer re-sent under old dseqs
    report = recovery.report()
    assert report["durable"]["cold_restored"] is True
    assert report["durable"]["commits"] > 0
    recovery.close()


def test_restore_is_idempotent_across_repeated_deaths(tmp_path):
    """Die, restore, die again (same fault), restore again: the second
    cold restore starts from the *later* committed cut and still lands
    on the exact stream."""
    _crash_and_abandon(tmp_path, crash_at=7)
    _crash_and_abandon(tmp_path, crash_at=16)
    app, sink = make_recoverable_pipeline(N)
    rt, recovery = _install(tmp_path, app)
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(N))
    recovery.close()


def test_config_digest_binds_the_directory_to_one_campaign(tmp_path):
    store = DurableStore(str(tmp_path), config=CONFIG)
    store.open()
    store.close()
    other = DurableStore(str(tmp_path), config={"app": "recpipe", "n": N + 1})
    with pytest.raises(DurableError, match="config"):
        other.open()


def test_verify_passes_on_a_completed_campaign(tmp_path):
    _crash_and_abandon(tmp_path)
    app, _sink = make_recoverable_pipeline(N)
    rt, recovery = _install(tmp_path, app)
    rt.start()
    rt.wait()
    rt.stop()
    recovery.close()
    report = DurableStore(str(tmp_path), config=CONFIG).open().verify()
    assert report["ok"]
    assert report["wal"]["tail"] == "clean"
    assert report["epochs"]  # at least one committed checkpoint per name
    assert report["commits"] > 0


def test_frame_store_is_idempotent_per_index(tmp_path):
    frames = FrameStore(str(tmp_path / "frames"))
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    frames.save(2, img)
    frames.save(0, img * 2)
    frames.save(2, img)  # re-completion after a restore: same index, same bytes
    assert frames.count() == 2
    loaded = frames.load_frames()
    assert np.array_equal(loaded[2], img)
    assert np.array_equal(loaded[0], img * 2)


# -- the PR 4 timer-wheel satellite, extended to the durable path --------------


class DeadlineSink(Component):
    """Checkpointable consumer whose every receive arms a deadline timer
    on the 256-slot wheel."""

    def __init__(self, timeout_ns):
        super().__init__("cons")
        self.add_provided("in")
        self.timeout_ns = timeout_ns
        self.got = []
        self._restored = False

    def snapshot(self):
        return {"got": list(self.got)}

    def restore(self, state):
        self.got = list(state["got"])
        self._restored = True

    def behavior(self, ctx):
        if not self._restored:
            self.got = []
        self._restored = False
        while True:
            msg = yield from ctx.receive("in", timeout_ns=self.timeout_ns)
            if msg.kind == CONTROL:
                return len(self.got)
            self.got.append(msg.payload)


def _deadline_app(timeout_ns, n=12):
    app = Application("dl")

    def producer(ctx):
        for i in range(n):
            yield from ctx.send("out", i)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    app.create("prod", behavior=producer, requires=["out"])
    sink = app.add(DeadlineSink(timeout_ns))
    app.connect("prod", "out", "cons", "in")
    return app, sink


def test_disk_restore_leaks_no_deadline_timers(tmp_path):
    """Every receive in both incarnations arms a timer; after the cold
    restore finishes the stream, ``pending()`` must land exactly where a
    deadline-free, durability-free run lands."""
    app, _sink = _deadline_app(timeout_ns=1_000_000_000)
    rt1, recovery1 = _install(tmp_path, app)
    FaultInjector(FaultPlan(seed=0).crash("cons", on_receive=5)).install(rt1)
    rt1.start()
    with pytest.raises(InjectedFault):
        rt1.wait()
    recovery1.close()

    app2, sink2 = _deadline_app(timeout_ns=1_000_000_000)
    rt2, recovery2 = _install(tmp_path, app2)
    assert recovery2.cold_restored
    rt2.start()
    rt2.wait()
    rt2.stop()
    assert sink2.got == list(range(12))
    recovery2.close()

    baseline_app, _ = _deadline_app(timeout_ns=None)
    rt3 = SmpSimRuntime()
    rt3.deploy(baseline_app)
    rt3.start()
    rt3.wait()
    rt3.stop()
    assert rt2.kernel.pending() == rt3.kernel.pending()


def test_sharded_run_leaks_no_deadline_timers():
    """Deadline receives on the sharded runtime are consumed/cancelled
    just like on the unsharded one."""

    def _pending(timeout_ns):
        app, sink = _deadline_app(timeout_ns)
        rt = ShardedSmpSimRuntime(2)
        rt.run(app)
        rt.stop()
        assert sink.got == list(range(12))
        return rt.kernel.pending()

    assert _pending(1_000_000_000) == _pending(None)


def test_sharded_cold_restore_delivers_every_message_exactly_once(tmp_path):
    """Producer and consumer on shards 0 and 1 of one kernel: the cold
    restore replays the unacknowledged messages across the shard cut,
    and the stream still arrives without loss or duplicates."""
    partial = _crash_and_abandon(tmp_path, make=lambda: ShardedSmpSimRuntime(2))
    assert 0 < len(partial) < N

    app, sink = make_recoverable_pipeline(N)
    rt, recovery = _install(tmp_path, app, make=lambda: ShardedSmpSimRuntime(2))
    assert rt.shard_of("prod") != rt.shard_of("cons")
    assert recovery.cold_restored
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(N))
    assert recovery.deduped > 0
    recovery.close()


def test_checksummed_json_roundtrip(tmp_path):
    from repro.recovery.durable import read_checksummed_json, write_checksummed_json

    path = str(tmp_path / "doc.json")
    body = {"b": [1, 2, 3], "a": {"nested": True}}
    checksum = write_checksummed_json(path, body)
    assert len(checksum) == 64
    assert read_checksummed_json(path) == body
    # identical body writes identical bytes (resume byte-identity)
    data = open(path, "rb").read()
    write_checksummed_json(path, {"a": {"nested": True}, "b": [1, 2, 3]})
    assert open(path, "rb").read() == data


def test_checksummed_json_detects_corruption(tmp_path):
    from repro.recovery.durable import (
        DurableError,
        read_checksummed_json,
        write_checksummed_json,
    )

    path = str(tmp_path / "doc.json")
    write_checksummed_json(path, {"value": 1})
    tampered = open(path).read().replace('"value": 1', '"value": 2')
    open(path, "w").write(tampered)
    with pytest.raises(DurableError, match="checksum mismatch"):
        read_checksummed_json(path)


def test_checksummed_json_rejects_torn_and_foreign_files(tmp_path):
    from repro.recovery.durable import DurableError, read_checksummed_json

    torn = tmp_path / "torn.json"
    torn.write_text('{"body": {"x"')  # truncated mid-write
    with pytest.raises(DurableError, match="unreadable"):
        read_checksummed_json(str(torn))
    foreign = tmp_path / "foreign.json"
    foreign.write_text('{"just": "json"}')
    with pytest.raises(DurableError, match="not a checksummed"):
        read_checksummed_json(str(foreign))
    with pytest.raises(DurableError, match="unreadable"):
        read_checksummed_json(str(tmp_path / "absent.json"))
