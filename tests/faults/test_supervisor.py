"""Supervision policies: restart, degrade, halt, escalate."""

import pytest

from repro.core import Application, CONTROL, ComponentState, EscalationError
from repro.faults import (
    DegradePolicy,
    FaultInjector,
    FaultPlan,
    HaltPolicy,
    RestartPolicy,
    Supervisor,
)
from repro.runtime import NativeRuntime, SmpSimRuntime
from repro.sim.rng import RngRegistry

from tests.faults.conftest import make_pipeline


def flaky_consumer(failures, sink):
    """Consumer that raises on its first ``failures`` data messages."""
    state = {"failures": failures}

    def behavior(ctx):
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return len(sink)
            if state["failures"] > 0:
                state["failures"] -= 1
                raise ValueError("transient consumer fault")
            sink.append(msg.payload)

    return behavior


def make_flaky_app(failures, n_messages=8):
    sink = []
    app = Application("flaky")

    def producer(ctx):
        for i in range(n_messages):
            yield from ctx.send("out", i)
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    app.create("prod", behavior=producer, requires=["out"])
    app.create("cons", behavior=flaky_consumer(failures, sink), provides=["in"])
    app.connect("prod", "out", "cons", "in")
    return app, sink


class TestRestartPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RestartPolicy(
            base_backoff_ns=1_000, factor=2.0, max_backoff_ns=5_000, jitter=0.0
        )
        rng = RngRegistry(0).stream("x")
        assert policy.backoff_ns(1, rng) == 1_000
        assert policy.backoff_ns(2, rng) == 2_000
        assert policy.backoff_ns(3, rng) == 4_000
        assert policy.backoff_ns(4, rng) == 5_000  # capped

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RestartPolicy(base_backoff_ns=1_000_000, jitter=0.1)
        a = [policy.backoff_ns(1, RngRegistry(9).stream("s")) for _ in range(3)]
        assert a[0] == a[1] == a[2]
        assert 900_000 <= a[0] <= 1_100_000

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RestartPolicy(jitter=1.0)


def test_sim_restart_recovers_and_is_observed():
    app, sink = make_flaky_app(failures=2)
    rt = SmpSimRuntime()
    rt.deploy(app)
    sup = Supervisor(policy=RestartPolicy(max_attempts=3, base_backoff_ns=100_000)).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    cons = app.components["cons"]
    assert cons.state == ComponentState.STOPPED
    # Two messages were consumed by the failing attempts; the rest landed.
    assert len(sink) == 6
    probe = rt.container("cons").probe
    assert probe.restarts == 2
    assert len(probe.recovery_ns) == 2
    assert all(d >= 100_000 for d in probe.recovery_ns)  # downtime >= backoff
    assert [e.action for e in sup.events] == ["restart", "restart"]


def test_native_restart_recovers():
    app, sink = make_flaky_app(failures=1)
    rt = NativeRuntime(receive_timeout_s=5.0, join_timeout_s=30.0)
    rt.deploy(app)
    Supervisor(policy=RestartPolicy(max_attempts=2, base_backoff_ns=1_000_000)).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    assert app.components["cons"].state == ComponentState.STOPPED
    assert len(sink) == 7
    assert rt.container("cons").probe.restarts == 1


def test_escalation_after_max_attempts():
    app, _ = make_flaky_app(failures=99)
    rt = SmpSimRuntime()
    rt.deploy(app)
    sup = Supervisor(policy=RestartPolicy(max_attempts=2, base_backoff_ns=1_000)).install(rt)
    rt.start()
    with pytest.raises(EscalationError, match="failed permanently after 2 restart"):
        rt.wait()
    assert app.components["cons"].state == ComponentState.FAILED
    assert [e.action for e in sup.events] == ["restart", "restart", "escalate"]


def test_escalation_chains_the_causing_exception():
    """``raise EscalationError ... from err``: the original fault stays
    inspectable as ``__cause__`` instead of being flattened to a string."""
    app, _ = make_flaky_app(failures=99)
    rt = SmpSimRuntime()
    rt.deploy(app)
    Supervisor(policy=RestartPolicy(max_attempts=2, base_backoff_ns=1_000)).install(rt)
    rt.start()
    with pytest.raises(EscalationError) as err:
        rt.wait()
    cause = err.value.__cause__
    assert isinstance(cause, ValueError)
    assert "transient consumer fault" in str(cause)


def test_halt_policy_propagates_the_original_error():
    app, _ = make_flaky_app(failures=1)
    rt = SmpSimRuntime()
    rt.deploy(app)
    Supervisor(policy=HaltPolicy()).install(rt)
    rt.start()
    with pytest.raises(ValueError, match="transient consumer fault"):
        rt.wait()
    assert app.components["cons"].state == ComponentState.FAILED


def test_degrade_disconnects_inbound_and_marks_degraded():
    app = Application("degrade")
    delivered = []

    def producer(ctx):
        for i in range(6):
            out = ctx.component.get_required("out")
            if not out.connected:
                return i  # rerouting decision: the sink is gone
            yield from ctx.send("out", i)
        return 6

    def doomed(ctx):
        yield from ctx.receive("in")
        raise RuntimeError("dead on first message")

    app.create("prod", behavior=producer, requires=["out"])
    app.create("sink", behavior=doomed, provides=["in"])
    app.connect("prod", "out", "sink", "in")
    rt = SmpSimRuntime()
    rt.deploy(app)
    Supervisor(policy=DegradePolicy()).install(rt)
    rt.start()
    rt.wait()  # completes: the failure was absorbed
    rt.stop()
    sink = app.components["sink"]
    assert sink.state == ComponentState.DEGRADED
    assert not app.components["prod"].get_required("out").connected
    # _mark_stopped must not overwrite the DEGRADED verdict at teardown.
    assert sink.state == ComponentState.DEGRADED


def test_supervised_injected_crashes_recover_end_to_end():
    """Injector + supervisor together: the designed recovery loop."""
    app, sink = make_pipeline(n_messages=10)
    rt = SmpSimRuntime()
    rt.deploy(app)
    FaultInjector(FaultPlan(seed=0).crash("cons", on_receive=4)).install(rt)
    Supervisor(policy=RestartPolicy(max_attempts=2)).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    # message 4 died with the crash; everything else was delivered
    assert len(sink) == 9
    assert rt.container("cons").probe.restarts == 1
    assert rt.container("cons").probe.fault_counts == {"crash": 1}


def test_full_jitter_backoff_spreads_over_the_whole_window():
    """Full jitter draws from [0, raw]; proportional stays in a narrow
    band around raw -- the difference that desynchronizes retry storms."""
    from repro.faults.supervisor import JITTER_FULL

    proportional = RestartPolicy(base_backoff_ns=1_000_000, jitter=0.1)
    full = RestartPolicy(base_backoff_ns=1_000_000, jitter_mode=JITTER_FULL)
    registry = RngRegistry(7)
    raw = 1_000_000
    prop_draws = [
        proportional.backoff_ns(1, registry.stream(f"p.{k}")) for k in range(32)
    ]
    full_draws = [full.backoff_ns(1, registry.stream(f"f.{k}")) for k in range(32)]
    assert all(0.9 * raw <= d <= 1.1 * raw for d in prop_draws)
    assert all(0 <= d <= raw for d in full_draws)
    # the full-jitter spread covers far more of the window
    assert max(full_draws) - min(full_draws) > max(prop_draws) - min(prop_draws)


def test_full_jitter_decorrelates_co_faulted_components():
    """Identical policies, same attempt: per-component streams give each
    component its own point of the window (no synchronized retry band)."""
    from repro.faults.supervisor import JITTER_FULL

    policy = RestartPolicy(base_backoff_ns=1_000_000, jitter_mode=JITTER_FULL)
    registry = RngRegistry(0)
    draws = {
        name: policy.backoff_ns(1, registry.stream(f"supervisor.backoff.{name}"))
        for name in ("IDCT_1", "IDCT_2", "IDCT_3")
    }
    assert len(set(draws.values())) == 3


def test_full_jitter_is_deterministic_per_seed():
    from repro.faults.supervisor import JITTER_FULL

    policy = RestartPolicy(base_backoff_ns=1_000_000, jitter_mode=JITTER_FULL)
    a = policy.backoff_ns(2, RngRegistry(5).stream("supervisor.backoff.X"))
    b = policy.backoff_ns(2, RngRegistry(5).stream("supervisor.backoff.X"))
    assert a == b


def test_unknown_jitter_mode_is_rejected():
    with pytest.raises(ValueError, match="jitter_mode"):
        RestartPolicy(jitter_mode="gaussian")


def test_degrade_detach_outbound_disconnects_required_interfaces():
    """detach_outbound severs the degraded component's outgoing data
    connections so dynamic downstream counting stops expecting its EOS."""
    from tests.faults.conftest import collector_behavior, producer_behavior

    app = Application("detach")
    sink = []
    app.create("prod", behavior=producer_behavior(3), requires=["out"])
    app.create("mid", behavior=lambda ctx: iter(()), provides=["in"], requires=["out"])
    app.create("cons", behavior=collector_behavior(sink), provides=["in"])
    app.connect("prod", "out", "mid", "in")
    app.connect("mid", "out", "cons", "in")
    mid = app.components["mid"]
    assert mid.get_required("out").connected
    Supervisor._disconnect_outbound(mid)
    assert not mid.get_required("out").connected
    # inbound stays: detach_outbound composes with (not replaces) the
    # inbound disconnect the degrade flow always performs
    assert app.components["prod"].get_required("out").connected
    # and the flag defaults off
    assert not DegradePolicy().detach_outbound
    assert DegradePolicy(detach_outbound=True).detach_outbound
