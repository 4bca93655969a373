"""End-to-end tests for :class:`ShardedSmpSimRuntime`.

The sharding oracle: partitioning the deployment across N shards of
one kernel is *unobservable* in the output -- the decoded frame set is
sha256-identical and every component sees the same event order for any
shard count.
"""

import pytest

from repro.core.messages import Message
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


def test_one_shard_makespan_gap_is_the_delivery_link_latency():
    # A 1-shard run ends a few hundred ns after the plain runtime because
    # the sharded transport adds the link latency to every delivery;
    # with that latency zeroed the two runs are the same model.
    stream = generate_stream(8, 96, 96, quality=75, seed=1)

    def run(rt):
        app = build_smp_assembly(stream, keep_frames=True)
        rt.run(app)
        rt.stop()
        return rt.makespan_ns, frames_digest(app.components["Reorder"].frames)

    plain = run(SmpSimRuntime())
    sharded = run(ShardedSmpSimRuntime(1))
    assert sharded[1] == plain[1] and sharded[0] != plain[0]
    zero_link = ShardedSmpSimRuntime(1)
    zero_link.platform.link_latency_ns = lambda src_core, dst_core: 0
    assert run(zero_link) == plain


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


def test_staged_deliveries_are_shared_handlers_plus_the_message():
    # Every delivery of a decode, data and observation alike, is
    # scheduled as a module-level handler with the Message as data, not
    # as a closure built for that send.
    stream = generate_stream(4, 96, 96, quality=75, seed=0)
    app = build_smp_assembly(stream, use_stored_coefficients=True)
    rt = ShardedSmpSimRuntime(2)
    rt.deploy(app)
    staged, crossed = [], []
    schedule, deliver = rt.kernel.schedule, rt._deliver

    def stage(delay_ns, handler, *args):
        staged.append((handler, args))
        return schedule(delay_ns, handler, *args)

    def deliver_staged(src_cont, target, handler, binding, message):
        crossed.append(src_cont.extra["shard"] != rt.shard_of(target.component.name))
        rt.kernel.schedule = stage
        try:
            deliver(src_cont, target, handler, binding, message)
        finally:
            del rt.kernel.schedule

    rt._deliver = deliver_staged
    rt.start()
    rt.wait()
    rt.collect()
    rt.stop()
    assert any(crossed) and not all(crossed)
    assert len(staged) == len(crossed)
    assert {handler.__name__ for handler, _ in staged} == {"_deliver_to_mailbox", "put"}
    for handler, args in staged:
        assert handler.__closure__ is None, handler
        assert isinstance(args[-1], Message), args


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


def test_merge_buffers_applies_clock_offsets():
    a, b = TraceBuffer(capacity=4), TraceBuffer(capacity=4)
    a.append((100, 1, "x", "compute", "op", "I", {}))
    b.append((10, 1, "y", "compute", "op", "I", {}))
    merged = merge_buffers([a, b], clock_offsets_ns=[0, 500])
    assert [(row[0], row[2]) for row in merged.rows()] == [(100, "x"), (510, "y")]


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
