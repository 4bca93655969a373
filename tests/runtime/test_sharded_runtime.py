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
from repro.sim.shard import span_shard
from repro.trace import TraceBuffer, collect_trace, enable_tracing, merge_buffers

N_IMAGES = 3


def _decode(n_shards: int, trace: bool = False):
    """Run the MJPEG SMP decode; returns (digest, runtime, buffers)."""
    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=0)
    app = build_smp_assembly(stream, use_stored_coefficients=True, keep_frames=True)
    if n_shards == 0:
        rt = SmpSimRuntime()
    else:
        rt = ShardedSmpSimRuntime(n_shards)
    buffers = None
    if trace:
        rt.deploy(app)
        buffers = enable_tracing(rt)
        rt.start()
        rt.wait()
    else:
        rt.run(app)
    reports = rt.collect()
    rt.stop()
    assert len(reports) == 15  # 5 components x 3 levels
    return frames_digest(app.components["Reorder"].frames), rt, buffers


def test_frame_set_is_shard_count_invariant():
    reference, _, _ = _decode(0)  # the plain single-kernel runtime
    for n_shards in (1, 2, 4):
        digest, rt, _ = _decode(n_shards)
        assert digest == reference, f"{n_shards} shards diverged from the baseline"


def _pinned_decode(make, seed):
    """A traced, telemetered 12-image decode with every component pinned
    to core ``i * 16 // n``, so each shard count hosts the same cores."""
    from repro.metrics import collect_telemetry, enable_telemetry, metrics_digest
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
    timeline = {}
    for ts, _seq, component, category, name, phase, _args in collect_trace(rt).rows():
        timeline.setdefault(component, []).append((ts, category, name, phase))
    return {
        "makespan": rt.makespan_ns,
        "frames": frames_digest(app.components["Reorder"].frames),
        "reports": reports_digest(reports),
        "metrics": metrics_digest(registry),
        "timeline": timeline,
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
    two, rt2, buffers2 = _decode(2, trace=True)
    four, rt4, buffers4 = _decode(4, trace=True)
    assert two == four
    assert len(buffers2) == 2 and len(buffers4) == 4
    assert _per_component_sequences(rt2) == _per_component_sequences(rt4)


def test_span_ids_come_from_the_owning_shards_range():
    _, rt, buffers = _decode(2, trace=True)
    for name, cont in rt.containers.items():
        span = next(cont.context._span_source)
        assert span_shard(span) == cont.extra["shard"], name
    # Every message allocation (send/deposit END carries the fresh span)
    # across all shard buffers gets a distinct id -- the collision the
    # per-shard ranges exist to prevent.  Receive events legitimately
    # repeat the sender's span and are excluded.
    allocated = []
    for buffer in buffers:
        for ts, seq, component, category, name, phase, args in buffer.rows():
            if name in ("send", "deposit") and phase == "E" and "span" in args:
                allocated.append(args["span"])
    assert allocated and len(allocated) == len(set(allocated))


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
    reference, _, _ = _decode(0)
    assert frames_digest(app.components["Reorder"].frames) == reference


@pytest.mark.parametrize("name", ["system", "process"])
def test_sharded_runtime_has_no_runtime_wide_clock_or_os(name):
    # Each shard owns its OS and process; a runtime-wide alias would
    # charge a component to another shard's cores.  The clock is the
    # runtime's one kernel (the next test).
    rt = ShardedSmpSimRuntime(2)
    with pytest.raises(AttributeError):
        getattr(rt, name)
    assert len(rt.systems) == len(rt.processes) == 2


def test_every_shard_runs_on_the_runtimes_one_kernel():
    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=0)
    rt = ShardedSmpSimRuntime(2)
    rt.deploy(build_smp_assembly(stream, use_stored_coefficients=True))
    assert len(rt.systems) == len(rt.processes) == 2
    assert all(system.kernel is rt.kernel for system in rt.systems)
    for cont in rt.containers.values():
        assert cont.context.kernel is rt.kernel
        assert cont.service_context.kernel is rt.kernel


def test_merge_buffers_orders_by_time_shard_and_seq():
    a, b = TraceBuffer(capacity=8), TraceBuffer(capacity=8)
    # (ts, seq, component, category, name, phase, args)
    a.append((10, 1, "x", "compute", "op", "I", {}))
    a.append((30, 2, "x", "compute", "op", "I", {}))
    b.append((10, 1, "y", "compute", "op", "I", {}))
    b.append((20, 2, "y", "compute", "op", "I", {}))
    merged = merge_buffers([a, b])
    order = [(row[0], row[2]) for row in merged.rows()]
    # Equal timestamps: shard 0 (buffer a) sorts before shard 1 (b).
    assert order == [(10, "x"), (10, "y"), (20, "y"), (30, "x")]
    seqs = [row[1] for row in merged.rows()]
    assert seqs == sorted(seqs) and len(set(seqs)) == 4


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


def test_collect_trace_merges_shard_buffers_and_passes_one_through():
    _, rt, buffers = _decode(2, trace=True)
    merged = collect_trace(rt)
    assert len(merged) == sum(len(b) for b in buffers)
    assert merged.rows() == merge_buffers(buffers).rows()
    _, plain, buffer = _decode(0, trace=True)
    assert isinstance(buffer, TraceBuffer)
    assert collect_trace(plain) is buffer


def test_sharded_tracing_rejects_a_shared_buffer():
    stream = generate_stream(N_IMAGES, 96, 96, quality=75, seed=0)
    rt = ShardedSmpSimRuntime(2)
    rt.deploy(build_smp_assembly(stream, use_stored_coefficients=True))
    with pytest.raises(ValueError, match="one buffer per shard"):
        enable_tracing(rt, TraceBuffer())
