"""End-to-end tests for :class:`ShardedSmpSimRuntime`.

The sharding oracle: partitioning the deployment across N shards of
one kernel is *unobservable* in the output -- the decoded frame set is
sha256-identical and every component sees the same event order for any
shard count, and under pinned placement the same timestamps, reports
and metrics as the plain one-shard runtime.
"""

import pytest

from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, frames_digest
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime
from repro.trace import collect_trace, enable_tracing

N_IMAGES = 3


def _decode(n_shards: int, trace: bool = False):
    """Run the MJPEG SMP decode; returns (digest, runtime)."""
    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=0)
    app = build_smp_assembly(stream, use_stored_coefficients=True, keep_frames=True)
    if n_shards == 0:
        rt = SmpSimRuntime()
    else:
        rt = ShardedSmpSimRuntime(n_shards)
    if trace:
        rt.deploy(app)
        enable_tracing(rt)
        rt.start()
        rt.wait()
    else:
        rt.run(app)
    reports = rt.collect()
    rt.stop()
    assert len(reports) == 15  # 5 components x 3 levels
    return frames_digest(app.components["Reorder"].frames), rt


def test_frame_set_is_shard_count_invariant():
    reference, _ = _decode(0)  # the plain single-kernel runtime
    for n_shards in (1, 2, 4):
        digest, rt = _decode(n_shards)
        assert digest == reference, f"{n_shards} shards diverged from the baseline"


def _pinned_decode(make, seed):
    """A traced, telemetered 12-image decode with every component pinned
    to core ``i * 16 // n``, so each shard count hosts the same cores.
    The metrics document leaves out the ``shard_cut_messages`` gauges,
    the one part of a run that describes the shard layout."""
    from repro.metrics import (
        collect_telemetry, enable_telemetry, metrics_digest, registry_payload,
    )
    from tests.runtime.test_sim_model_pins import reports_digest

    stream = generate_stream(12, 96, 96, quality=75, seed=seed)
    app = build_smp_assembly(stream, use_stored_coefficients=True, keep_frames=True)
    n_components = len(app.components)
    for i, comp in enumerate(app.components.values()):
        comp.placement["core"] = i * 16 // n_components
    rt = make()
    rt.deploy(app)
    enable_tracing(rt)
    enable_telemetry(rt)
    rt.start()
    rt.wait()
    registry = collect_telemetry(rt)
    reports = rt.collect()
    rt.stop()
    rows = collect_trace(rt).rows()
    timeline = {}
    for ts, _seq, component, category, name, phase, _args in rows:
        timeline.setdefault(component, []).append((ts, category, name, phase))
    document = registry_payload(registry)
    document["instruments"] = {
        iid: snap
        for iid, snap in document["instruments"].items()
        if snap["name"] != "shard_cut_messages"
    }
    return {
        "makespan": rt.makespan_ns,
        "frames": frames_digest(app.components["Reorder"].frames),
        "reports": reports_digest(reports),
        "metrics": metrics_digest(registry),
        "timeline": timeline,
        "trace": rows,
        "document": document,
    }


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_pinned_decode_is_the_plain_runtimes_at_every_shard_count(seed):
    # Deliveries are immediate on every shard count, so under one
    # placement the shards change nothing a run reports.
    plain = _pinned_decode(SmpSimRuntime, seed)
    for n_shards in (1, 2, 4):
        sharded = _pinned_decode(lambda: ShardedSmpSimRuntime(n_shards), seed)
        for key, value in plain.items():
            assert sharded[key] == value, (n_shards, key)


def _per_component_sequences(rt):
    merged = collect_trace(rt)
    sequences = {}
    for ts, seq, component, category, name, phase, args in merged.rows():
        sequences.setdefault(component, []).append((category, name, phase))
    return sequences


def test_per_component_event_order_is_shard_count_invariant():
    """Timestamps may shift with placement (different cores, different
    NUMA latencies) but each component must run through the identical
    event sequence at every shard count."""
    two, rt2 = _decode(2, trace=True)
    four, rt4 = _decode(4, trace=True)
    assert two == four
    assert _per_component_sequences(rt2) == _per_component_sequences(rt4)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_recovery_replicas_never_reuse_a_span_id(n_shards):
    # A replayed replica draws a fresh span from the runtime, which must
    # not be one a shard already gave a message.
    from repro.faults import FaultPlan
    from repro.runtime import RunConfig, build_run

    stream = generate_stream(6, 96, 96, quality=75, seed=1)
    app = build_smp_assembly(stream, use_stored_coefficients=True)
    plan = FaultPlan(1).crash("IDCT_1", on_receive=3).crash("Reorder", on_receive=4)
    config = RunConfig(shards=n_shards, trace=True, faults=plan, policy="recover", seed=1)
    rt = build_run(config, app)
    rt.start()
    rt.wait()
    rt.stop()
    spans = [
        args["span"]
        for ts, seq, component, category, name, phase, args in collect_trace(rt).rows()
        if name == "replay" or (name in ("send", "deposit") and phase == "E" and "span" in args)
    ]
    assert rt.recovery.replayed > 0
    assert len(spans) == len(set(spans))


def test_placement_hints_pin_components():
    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=0)
    app = build_smp_assembly(stream, use_stored_coefficients=True, keep_frames=True)
    app.components["IDCT_2"].place(shard=1)
    rt = ShardedSmpSimRuntime(2)
    rt.run(app)
    rt.collect()
    rt.stop()
    assert rt.containers["IDCT_2"].extra["shard"] == 1
    reference, _ = _decode(0)
    assert frames_digest(app.components["Reorder"].frames) == reference


def test_every_shard_runs_on_the_runtimes_one_kernel():
    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=0)
    rt = ShardedSmpSimRuntime(2)
    rt.deploy(build_smp_assembly(stream, use_stored_coefficients=True))
    # Shards only place components: the runtime has one OS and one
    # process, on its one kernel, at any shard count.
    assert rt.system.kernel is rt.kernel
    assert rt.process.system is rt.system
    assert {cont.extra["shard"] for cont in rt.containers.values()} == {0, 1}
    for cont in rt.containers.values():
        assert cont.context.kernel is rt.kernel
        assert cont.service_context.kernel is rt.kernel


def test_shard_plane_gauges_are_stamped_and_digest_safe():
    """The per-shard cut traffic lands as *gauges* (shard-layout-
    dependent, so they must stay outside the digest) and the metrics
    sha256 stays shard-count invariant."""
    from repro.metrics import collect_telemetry, enable_telemetry, metrics_digest

    def run(n_shards):
        stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=0)
        app = build_smp_assembly(stream, use_stored_coefficients=True)
        rt = ShardedSmpSimRuntime(n_shards)
        n_cores, n_components = rt.platform.n_cores, len(app.components)
        for i, comp in enumerate(app.components.values()):
            comp.placement["core"] = i * n_cores // n_components  # every shard hosts one
        rt.deploy(app)
        assert {c.extra["shard"] for c in rt.containers.values()} == set(range(n_shards))
        enable_telemetry(rt)
        rt.start()
        rt.wait()
        rt.stop()
        return collect_telemetry(rt)

    reg1, reg2, reg4 = run(1), run(2), run(4)
    assert metrics_digest(reg1) == metrics_digest(reg2) == metrics_digest(reg4)
    instruments = reg4.snapshot()["instruments"]
    cut = [k for k in instruments if k.startswith("shard_cut_messages")]
    assert len(cut) == 8  # in/out per shard
    assert all(instruments[k]["kind"] == "gauge" for k in cut)
    assert sum(instruments[k]["value"] for k in cut) > 0  # real cross traffic


@pytest.mark.parametrize("n_shards", (2, 4))
def test_shard_cut_gauges_count_the_posted_envelopes(n_shards):
    """Each shard's ``in``/``out`` gauge is the number of messages posted
    across the shard cut to/from it: traced sends whose destination
    component lives on another shard, counted from the merged trace's
    send rows and the placement."""
    from repro.metrics import collect_telemetry, enable_telemetry

    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=0)
    app = build_smp_assembly(stream, use_stored_coefficients=True)
    rt = ShardedSmpSimRuntime(n_shards)
    n_cores, n_components = rt.platform.n_cores, len(app.components)
    for i, comp in enumerate(app.components.values()):
        comp.placement["core"] = i * n_cores // n_components  # every shard hosts one
    rt.deploy(app)
    enable_tracing(rt)
    enable_telemetry(rt)
    rt.start()
    rt.wait()
    rt.stop()
    sent_in, sent_out = [0] * n_shards, [0] * n_shards
    for ts, seq, component, category, name, phase, args in collect_trace(rt).rows():
        if name == "send" and phase == "E" and "dst" in args:
            src = rt.shard_of(component)
            dst = rt.shard_of(args["dst"].rpartition(".")[0])
            if src != dst:
                sent_out[src] += 1
                sent_in[dst] += 1
    instruments = collect_telemetry(rt).snapshot()["instruments"]
    cut = {
        (i["labels"]["shard"], i["labels"]["direction"]): i["value"]
        for i in instruments.values()
        if i["name"] == "shard_cut_messages"
    }
    assert [cut[(k, "in")] for k in range(n_shards)] == sent_in
    assert [cut[(k, "out")] for k in range(n_shards)] == sent_out
    assert sum(sent_in) > 0
