"""Counter conservation across the observation planes.

Every send and receive is recorded once by the component's probe, and
that one record feeds the probe's counters and timers, the telemetry
registry and -- through the tracing context -- the trace.  The planes
must therefore agree exactly, on every runtime and shard count: per
component, the probe's Table-2 counters equal the registry's message
and byte counters summed over interfaces and the number of data-kind
send/receive END rows in the trace; per interface, every timer counts
as many operations as its duration histogram.  A component added while
the application runs is attached to every plane before it is launched,
so the same holds for it.
"""

import pytest

from repro.core import CONTROL, Component
from repro.metrics.telemetry import collect_telemetry, enable_telemetry
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly
from repro.runtime import (
    NativeRuntime,
    ShardedSmpSimRuntime,
    SmpSimRuntime,
    Sti7200SimRuntime,
)
from repro.sim.process import Timeout
from repro.trace import END, collect_trace, enable_tracing

from tests.runtime.test_reconfiguration import slow_pipeline

N_IMAGES = 4

RUNTIMES = {
    "native": lambda: NativeRuntime(),
    "smp": lambda: SmpSimRuntime(),
    "sharded1": lambda: ShardedSmpSimRuntime(1),
    "sharded4": lambda: ShardedSmpSimRuntime(4),
    "sti7200": lambda: Sti7200SimRuntime(),
}


def _observed_run(runtime: str, seed: int):
    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=seed)
    if runtime == "sti7200":
        app = build_sti7200_assembly(stream, use_stored_coefficients=True)
    else:
        app = build_smp_assembly(stream, use_stored_coefficients=True)
    rt = RUNTIMES[runtime]()
    rt.deploy(app)
    enable_tracing(rt)
    enable_telemetry(rt)
    rt.start()
    rt.wait()
    registry = collect_telemetry(rt)
    rt.stop()
    return rt, registry, collect_trace(rt)


def _registry_sums(registry):
    """component -> instrument name -> value summed over interfaces."""
    sums = {}
    for kind, name, labels, inst in registry.instruments():
        if kind == "counter" and "iface" in labels:
            per = sums.setdefault(labels["component"], {})
            per[name] = per.get(name, 0) + inst.value
    return sums


def _trace_counts(trace):
    """component -> {"send": n, "receive": n} over data-kind END rows."""
    counts = {}
    for _ts, _seq, component, category, name, phase, args in trace.rows():
        if (
            category == "middleware"
            and phase == END
            and name in ("send", "receive")
            and args.get("kind") == "data"
        ):
            per = counts.setdefault(component, {"send": 0, "receive": 0})
            per[name] += 1
    return counts


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_probe_registry_and_trace_counters_agree(runtime, seed):
    rt, registry, trace = _observed_run(runtime, seed)
    assert trace.dropped == 0
    sums = _registry_sums(registry)
    hists = {}
    for kind, metric, labels, inst in registry.instruments():
        if kind == "histogram" and metric.endswith("_duration_ns"):
            key = (labels["component"], metric)
            hists.setdefault(key, {})[labels["iface"]] = inst.count
    traced = _trace_counts(trace)
    assert sum(per["send"] for per in traced.values()) > 0
    for name, cont in rt.containers.items():
        probe = cont.probe
        planes = {
            "probe": (
                probe.data_sends.value, probe.data_receives.value,
                probe.bytes_sent, probe.bytes_received,
            ),
            "registry": tuple(
                sums.get(name, {}).get(metric, 0)
                for metric in (
                    "messages_sent_total", "messages_received_total",
                    "bytes_sent_total", "bytes_received_total",
                )
            ),
        }
        assert planes["probe"] == planes["registry"], (name, planes)
        per = traced.get(name, {"send": 0, "receive": 0})
        assert (per["send"], per["receive"]) == planes["probe"][:2], name

        for timers, metric in (
            (probe.send_timers_by_iface, "send_duration_ns"),
            (probe.recv_timers_by_iface, "receive_duration_ns"),
        ):
            timed = {iface: timer.count for iface, timer in timers.items()}
            assert timed == hists.get((name, metric), {}), (name, metric)


#: Runtimes of the reconfigured run: the SMP runtime at 1 and 2 shards
#: (a component added mid-run takes the next core and its shard), and
#: real threads.
RECONFIGURED_RUNTIMES = {
    "native": lambda: NativeRuntime(),
    "smp1": lambda: SmpSimRuntime(),
    "smp2": lambda: SmpSimRuntime(shards=2),
}


def _add_tap_and_feeder(rt):
    """Add a ``tap`` (observed) and a ``feeder`` sending it three data
    messages and an end-of-stream."""

    def tap_behavior(ctx):
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return

    def feeder_behavior(ctx):
        for i in range(3):
            yield from ctx.send("tap_out", f"t{i}")
        yield from ctx.send("tap_out", None, kind=CONTROL, tag="eos")

    tap = Component("tap", behavior=tap_behavior)
    tap.add_provided("in")
    rt.add_component(tap, observe=True)
    rt.add_component(
        Component("feeder", behavior=feeder_behavior),
        connections=[("feeder", "tap_out", "tap", "in")],
    )


def _reconfigured_run(runtime: str):
    """``slow_pipeline`` traced and metered from deploy, with ``tap`` and
    ``feeder`` added after ``start()``."""
    rt = RECONFIGURED_RUNTIMES[runtime]()
    rt.deploy(slow_pipeline())
    enable_tracing(rt)
    enable_telemetry(rt)
    rt.start()
    if isinstance(rt, NativeRuntime):
        _add_tap_and_feeder(rt)
    else:

        def controller(runtime, ctx):
            yield Timeout(1_000)  # the pipeline is running
            _add_tap_and_feeder(runtime)

        rt.spawn_controller(controller)
    rt.wait()
    registry = collect_telemetry(rt)
    rt.stop()
    return rt, registry, collect_trace(rt)


@pytest.mark.parametrize("runtime", sorted(RECONFIGURED_RUNTIMES))
def test_components_added_mid_run_are_counted_by_every_plane(runtime):
    rt, registry, trace = _reconfigured_run(runtime)
    sums = _registry_sums(registry)
    traced = _trace_counts(trace)
    expected = {"tap": (0, 3), "feeder": (3, 0)}
    for name, counts in expected.items():
        probe = rt.container(name).probe
        planes = {
            "probe": (
                probe.data_sends.value, probe.data_receives.value,
                probe.bytes_sent, probe.bytes_received,
            ),
            "registry": tuple(
                sums.get(name, {}).get(metric, 0)
                for metric in (
                    "messages_sent_total", "messages_received_total",
                    "bytes_sent_total", "bytes_received_total",
                )
            ),
        }
        assert planes["probe"][:2] == counts, (name, planes)
        assert planes["probe"] == planes["registry"], (name, planes)
        per = traced.get(name, {"send": 0, "receive": 0})
        assert (per["send"], per["receive"]) == counts, (name, per)
