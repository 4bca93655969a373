"""Every plane reaches a component from birth.

The runtime attaches each plane it holds to a container at one site,
which deploy and ``add_component`` share, so a component created
mid-run is checkpointed and fault-hooked like a deployed one.  A fault
record finds the tracer through the container, so the fault injector
traces the same rows installed before or after tracing, and the
epoch-0 checkpoints wait for launch, so recovery does too.
"""

from repro.core import CONTROL, Component
from repro.faults import FaultInjector, FaultPlan
from repro.recovery import RecoveryManager
from repro.runtime import RunConfig, SmpSimRuntime, build_run
from repro.sim.process import Timeout
from repro.trace import collect_trace, enable_tracing

from tests.faults.conftest import make_pipeline
from tests.recovery.conftest import make_recoverable_pipeline
from tests.runtime.test_reconfiguration import slow_pipeline


class Tap(Component):
    """Checkpointable sink that keeps the delivery sequence of each data
    message it receives."""

    def __init__(self):
        super().__init__("tap")
        self.add_provided("in")
        self.dseqs = []

    def snapshot(self):
        return {"dseqs": list(self.dseqs)}

    def restore(self, state):
        self.dseqs = list(state["dseqs"])

    def behavior(self, ctx):
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return
            self.dseqs.append(msg.dseq)


class Feeder(Component):
    """Checkpointable source of three data messages and an end-of-stream."""

    def __init__(self):
        super().__init__("feeder")
        self.sent = 0

    def snapshot(self):
        return {"sent": self.sent}

    def restore(self, state):
        self.sent = state["sent"]

    def behavior(self, ctx):
        while self.sent < 3:
            yield from ctx.send("tap_out", f"t{self.sent}")
            self.sent += 1
        yield from ctx.send("tap_out", None, kind=CONTROL, tag="eos")


def test_recovery_and_faults_reach_components_added_mid_run():
    config = RunConfig(
        "smp", trace=True, telemetry=True, policy="recover",
        faults=FaultPlan(seed=1).duplicate("prod", "out", probability=0.5),
    )
    rt = build_run(config, slow_pipeline())
    tap = Tap()

    def controller(runtime, ctx):
        yield Timeout(1_000)
        runtime.add_component(tap, observe=True)
        runtime.add_component(
            Feeder(), connections=[("feeder", "tap_out", "tap", "in")]
        )

    rt.start()
    rt.spawn_controller(controller)
    rt.wait()
    rt.stop()
    assert tap.dseqs == [1, 2, 3]
    checkpoints = {
        (component, args["epoch"])
        for _ts, _seq, component, category, name, _phase, args in collect_trace(rt).rows()
        if category == "recovery" and name == "checkpoint"
    }
    for name in ("tap", "feeder"):
        cont = rt.container(name)
        assert (name, 0) in checkpoints
        assert cont.probe.checkpoints >= 1
        assert cont.hook_context.faults is rt.injector
        assert cont.hook_context.recovery is rt.recovery


def _fault_rows(injector_first):
    plan = (
        FaultPlan(seed=7)
        .drop("prod", "out", probability=0.3)
        .duplicate("prod", "out", probability=0.3)
        .stall("cons", on_receive=2, delay_ns=5_000)
    )
    app, _sink = make_pipeline(n_messages=12)
    rt = SmpSimRuntime()
    rt.deploy(app)
    if injector_first:
        FaultInjector(plan).install(rt)
        enable_tracing(rt)
    else:
        enable_tracing(rt)
        FaultInjector(plan).install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    return [row for row in collect_trace(rt).rows() if row[3] == "fault"]


def test_fault_trace_rows_do_not_depend_on_the_install_order():
    rows = _fault_rows(injector_first=False)
    assert {row[4] for row in rows} >= {"drop", "duplicate", "stall"}
    assert _fault_rows(injector_first=True) == rows


def _recovery_rows(recovery_first):
    app, _sink = make_recoverable_pipeline(10)
    rt = SmpSimRuntime()
    rt.deploy(app)
    if recovery_first:
        RecoveryManager().install(rt)
        enable_tracing(rt)
    else:
        enable_tracing(rt)
        RecoveryManager().install(rt)
    rt.start()
    rt.wait()
    rt.stop()
    # dur_ns is host time; every other field is the run's.
    return [
        (ts, seq, component, name, {k: v for k, v in args.items() if k != "dur_ns"})
        for ts, seq, component, category, name, _phase, args in collect_trace(rt).rows()
        if category == "recovery"
    ]


def test_recovery_trace_rows_do_not_depend_on_the_install_order():
    rows = _recovery_rows(recovery_first=False)
    assert {(row[2], row[4]["epoch"]) for row in rows if row[3] == "checkpoint"} >= {
        ("cons", 0), ("cons", 1)
    }
    assert _recovery_rows(recovery_first=True) == rows
