"""The snapshot contract and the recovery plane's copies.

A checkpoint commits ``snapshot()`` as the component returned it, so
every shipped snapshot must hand out a state the component never mutates
afterwards; restores still deep-copy, so a restored component may mutate
what it gets.  The Reorder stage copies its containers itself, and its
committed ``checkpoint_bytes`` must stay what a deep copy would give
(``sys.getsizeof`` of a set depends on how the set was built).  A
buffered retransmit copy and a replay replica carry every ``Message``
field.
"""

import dataclasses
from copy import deepcopy
from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Application, CONTROL
from repro.core.messages import Message, payload_nbytes
from repro.faults import FaultInjector, FaultPlan, RestartPolicy, Supervisor, run_chaos_campaign
from repro.mjpeg import generate_stream
from repro.mjpeg.components import ReorderComponent, build_sti7200_assembly
from repro.recovery import RecoveryManager
from repro.runtime import SmpSimRuntime, Sti7200SimRuntime
from repro.trace import enable_tracing

from tests.recovery.conftest import CheckpointedSink, int_producer, make_recoverable_pipeline
from tests.recovery.test_durable import _deadline_app

N = 20


def _same(a, b):
    """Deep equality that also compares numpy arrays by value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and np.array_equal(a, b)
    if isinstance(a, dict):
        return (
            type(b) is dict and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _commit(comp):
    """Commit one checkpoint of ``comp`` through a bare manager; returns
    the committed state and its counted bytes."""
    manager = RecoveryManager()
    manager._conts[comp.name] = SimpleNamespace(component=comp, probe=None, extra={})
    assert manager._take_checkpoint(comp.name)
    return manager._ckpt[comp.name]["state"], manager.checkpoint_bytes


def _reorder_state(comp):
    """What the Reorder snapshot returned before it copied: its live
    containers."""
    return {
        "pending": comp._pending,
        "eos_seen": comp._eos_seen,
        "completed": comp._completed,
        "completed_indices": comp.completed_indices,
    }


@pytest.mark.parametrize("restored", [False, True], ids=["fresh", "restored"])
def test_reorder_checkpoint_bytes_match_a_deep_copy_at_every_size(restored):
    rng = np.random.default_rng(3)
    pixels = np.zeros((12, 8, 8), dtype=np.uint8)
    for n_completed in range(201):
        for n_pending in range(4):
            comp = ReorderComponent("Reorder", 96, 96)
            order = [int(i) for i in rng.permutation(n_completed)]
            half = len(order) // 2
            for index in order[:half]:
                comp.completed_indices.add(index)
            if restored:  # a restore hands the stage a deep copy, then it grows
                comp.completed_indices = deepcopy(comp.completed_indices)
            for index in order[half:]:
                comp.completed_indices.add(index)
            comp._pending = {
                n_completed + p: {b: pixels for b in range(p + 1)} for p in range(n_pending)
            }
            comp._completed = n_completed
            expected = payload_nbytes(deepcopy(_reorder_state(comp)))
            state, nbytes = _commit(comp)
            assert payload_nbytes(state) == nbytes == expected, (n_completed, n_pending)


class _CommitLog:
    """Records every committed checkpoint with a deep copy taken at
    commit time."""

    def __init__(self, monkeypatch):
        self.commits = []
        original = RecoveryManager._take_checkpoint

        def spy(manager, name):
            committed = original(manager, name)
            if committed:
                ckpt = manager._ckpt[name]
                self.commits.append((name, ckpt, deepcopy(ckpt["state"])))
            return committed

        monkeypatch.setattr(RecoveryManager, "_take_checkpoint", spy)

    def assert_untouched(self):
        assert self.commits
        for name, ckpt, at_commit in self.commits:
            assert _same(ckpt["state"], at_commit), (name, ckpt["epoch"])

    def names(self, after_epoch=0):
        return {name for name, ckpt, _ in self.commits if ckpt["epoch"] > after_epoch}


def test_smp_mjpeg_snapshots_are_not_mutated_after_commit(monkeypatch):
    log = _CommitLog(monkeypatch)
    result = run_chaos_campaign(seed=1, n_images=8, recover=True)
    assert result.ok
    log.assert_untouched()
    assert {"Fetch", "IDCT_1", "Reorder"} <= log.names()
    # The shared pixel arrays are exercised: some committed Reorder state
    # holds a frame still being reassembled.
    assert any(name == "Reorder" and state["pending"] for name, _, state in log.commits)


def test_sti7200_snapshots_are_not_mutated_after_commit(monkeypatch):
    log = _CommitLog(monkeypatch)
    stream = generate_stream(6, 96, 96, quality=75, seed=1)
    app = build_sti7200_assembly(stream, use_stored_coefficients=True)
    rt = Sti7200SimRuntime()
    rt.deploy(app)
    RecoveryManager(checkpoint_interval=4).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    log.assert_untouched()
    assert {"Fetch-Reorder", "IDCT_1"} <= log.names()


def test_test_component_snapshots_are_not_mutated_after_commit(monkeypatch):
    log = _CommitLog(monkeypatch)
    app, sink = make_recoverable_pipeline(N)
    rt = SmpSimRuntime()
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=1).crash("cons", on_receive=9)).install(rt)
    RecoveryManager(checkpoint_interval=4).install(rt)
    Supervisor(policy=RestartPolicy()).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == list(range(N))

    app, dl_sink = _deadline_app(timeout_ns=10**9)
    rt = SmpSimRuntime()
    rt.deploy(app)
    RecoveryManager(checkpoint_interval=4).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert dl_sink.got == list(range(12))
    log.assert_untouched()
    assert log.names() == {"cons"}


class AliasingSink(CheckpointedSink):
    """Keeps the restored state object and appends to it in place."""

    def __init__(self):
        super().__init__("cons")
        self.restored_states = []

    def restore(self, state):
        self.restored_states.append(deepcopy(state))
        self.received = state["received"]
        self._restored = True


def test_a_restored_component_cannot_change_its_checkpoint():
    app = Application("alias")
    app.create("prod", behavior=int_producer(N), requires=["out"])
    sink = app.add(AliasingSink())
    app.connect("prod", "out", "cons", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    buffer = enable_tracing(rt)
    # Two crashes two receives apart: no checkpoint commits in between.
    plan = FaultPlan(seed=1).crash("cons", on_receive=9).crash("cons", on_receive=11)
    FaultInjector(plan).install(rt)
    recovery = RecoveryManager(checkpoint_interval=4).install(rt)
    Supervisor(policy=RestartPolicy()).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    restores = [
        e.args["epoch"]
        for e in buffer.events()
        if e.category == "recovery" and e.name == "restore"
    ]
    assert recovery.restores == 2
    assert len(restores) == 2 and restores[0] == restores[1] > 0
    first, second = sink.restored_states
    assert first == second and first["received"]
    assert sink.received == list(range(N))


#: A non-default value for every ``Message`` field; a field added to
#: ``Message`` fails the completeness test until it is listed here.
DISTINCT = {
    "payload": {"frame": 3},
    "kind": CONTROL,
    "tag": "t",
    "src": "prod",
    "src_interface": "out",
    "seq": 7,
    "size_bytes": 99,
    "sent_at_us": 11,
    "span": 13,
    "cause": 17,
    "dseq": 19,
}


def test_retransmit_copy_and_replay_replica_carry_every_field():
    fields = [f.name for f in dataclasses.fields(Message)]
    assert sorted(fields) == sorted(DISTINCT)
    defaults = Message(None)
    for name in fields:
        assert DISTINCT[name] != getattr(defaults, name), name
    message = Message(**DISTINCT)

    manager = RecoveryManager()
    requeued = []
    manager.runtime = SimpleNamespace(
        span_source=count(1000), _requeue=lambda prov, m: requeued.append(m)
    )
    ctx = SimpleNamespace(component=SimpleNamespace(name="prod"))
    target = SimpleNamespace(is_observation=False)
    manager.on_send(ctx, "out", target, message)
    ((_uid, copy, _target),) = manager._unacked[("prod", "out")].values()
    assert copy is not message
    for name in fields:
        assert getattr(copy, name) == getattr(message, name), name

    manager._replay_one("cons", None, copy)
    (replica,) = requeued
    assert replica is not copy
    for name in fields:
        if name not in ("span", "cause"):
            assert getattr(replica, name) == getattr(copy, name), name
    assert (replica.span, replica.cause) == (1000, copy.span)


class _NeverAcks(CheckpointedSink):
    """Never offers a snapshot, so the sender buffers every message."""

    def snapshot(self):
        return None


def test_corrupt_fault_leaves_the_buffered_payload_pristine():
    app = Application("corrupt")
    app.create("prod", behavior=int_producer(N), requires=["out"])
    sink = app.add(_NeverAcks("cons"))
    app.connect("prod", "out", "cons", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=2).corrupt("prod", "out", probability=1.0)).install(rt)
    recovery = RecoveryManager(checkpoint_interval=4).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert sink.received == [i ^ 0x55 for i in range(N)]
    buffered = recovery._unacked[("prod", "out")]
    assert [buffered[d][1].payload for d in sorted(buffered)] == list(range(N)) + [None]
