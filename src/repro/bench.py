"""Perf-trajectory microbenchmarks: ``python -m repro bench``.

Times the hot paths this codebase optimises -- entropy coding, the
simulation kernel, tracing -- and writes two JSON artifacts in the
current directory:

- ``BENCH_mjpeg.json``  -- codec benches, including the entropy-decode
  speedup of the LUT fast path over the pre-LUT per-symbol walk
  (:func:`repro.mjpeg.decoder.decode_plane_reference`).
- ``BENCH_kernel.json`` -- simulation-kernel and tracing benches.

Every bench reports the best wall-clock time over several repetitions
(minimum = least scheduler noise) plus a derived per-operation figure,
so successive commits can be compared point-to-point.  ``--quick``
shrinks the workloads for CI smoke runs; the numbers are noisier but
the artifact shape is identical.

``--workers N`` fans the per-frame decode benches across a
``multiprocessing`` pool: frames are sharded round-robin, every worker
times its shard independently (same reps, same best-of-reps rule), and
the per-shard results are merged by summing the shard bests -- the same
total-work figure a single process would report, measured in a fraction
of the wall time.  Single-process output (``--workers 1``, the default)
is byte-compatible with previous revisions.

``--check`` re-runs the kernel hot-path benches (``schedule_run``,
``tracer_emit``) and compares them against the committed
``BENCH_kernel.json``; a >25% per-op regression fails the run (CI gate).
It also re-measures the ``metrics_overhead`` scenario (the MJPEG decode
with and without the live telemetry plane) and fails when the overhead
ratio exceeds the absolute 1.05x budget.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional


def _best(fn: Callable[[], object], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def _frames(n_images: int):
    from repro.mjpeg import generate_stream

    stream = generate_stream(n_images, 96, 96, quality=75, seed=0)
    return [record.frame for record in stream.records]


def _decode_shard(shard_args: tuple) -> Dict:
    """Worker body for ``--workers``: time one shard of the per-frame
    decode/encode benches.  The stream is regenerated from its seed
    rather than pickled (deterministic and cheaper than shipping frame
    payloads through the pool)."""
    n_images, quick, indices = shard_args
    import numpy as np

    from repro.mjpeg import generate_stream
    from repro.mjpeg.bitio import BitReader, BitWriter
    from repro.mjpeg.decoder import decode_plane, decode_plane_reference
    from repro.mjpeg.encoder import encode_plane

    reps = 3 if quick else 9
    stream = generate_stream(n_images, 96, 96, quality=75, seed=0)
    frames = [stream.records[i].frame for i in indices]

    for frame in frames:
        fast = decode_plane(BitReader(frame.payload), frame.n_blocks)
        ref = decode_plane_reference(BitReader(frame.payload), frame.n_blocks)
        if not np.array_equal(fast, ref):
            raise AssertionError("decode_plane mismatch vs reference walk")

    t_fast = _best(
        lambda: [decode_plane(BitReader(f.payload), f.n_blocks) for f in frames],
        reps,
    )
    t_walk = _best(
        lambda: [
            decode_plane_reference(BitReader(f.payload), f.n_blocks) for f in frames
        ],
        reps,
    )
    qzzs = [np.asarray(f.qcoefs_zz, dtype=np.int32) for f in frames]

    def run_encode() -> None:
        for qzz in qzzs:
            writer = BitWriter()
            encode_plane(writer, qzz)
            writer.align()
            writer.getvalue()

    t_encode = _best(run_encode, reps)
    return {
        "fast": t_fast,
        "walk": t_walk,
        "encode": t_encode,
        "blocks": sum(f.n_blocks for f in frames),
    }


def bench_mjpeg(quick: bool = False, workers: int = 1) -> Dict:
    """Codec benches; returns the BENCH_mjpeg.json payload."""
    import numpy as np

    from repro.mjpeg.bitio import BitReader, BitWriter
    from repro.mjpeg.decoder import decode_plane, decode_plane_reference
    from repro.mjpeg.encoder import encode_plane

    n_images = 2 if quick else 8
    reps = 3 if quick else 9
    frames = _frames(n_images)
    n_blocks_total = sum(f.n_blocks for f in frames)

    if workers > 1:
        # Shard frames round-robin across the pool; each worker times
        # its shard and the shard bests sum to the total-work figure.
        # Split and merge go through repro.sim.shard -- the same
        # partition/reduce helpers the sharded simulation uses, so bench
        # sharding and sim sharding share one tested code path.
        import multiprocessing

        from repro.sim.shard import merge_shard_results, round_robin_partition

        n_shards = min(workers, len(frames))
        shards = [
            (n_images, quick, indices)
            for indices in round_robin_partition(len(frames), n_shards)
        ]
        with multiprocessing.Pool(n_shards) as pool:
            results = pool.map(_decode_shard, shards)
        merged = merge_shard_results(results, ("fast", "walk", "encode", "blocks"))
        t_fast = merged["fast"]
        t_walk = merged["walk"]
        t_encode = merged["encode"]
        assert merged["blocks"] == n_blocks_total
    else:
        # Correctness gate: the fast path must match the reference walk
        # bit-for-bit before its timing means anything.
        for frame in frames:
            fast = decode_plane(BitReader(frame.payload), frame.n_blocks)
            ref = decode_plane_reference(BitReader(frame.payload), frame.n_blocks)
            if not np.array_equal(fast, ref):
                raise AssertionError("decode_plane mismatch vs reference walk")

        t_fast = _best(
            lambda: [decode_plane(BitReader(f.payload), f.n_blocks) for f in frames],
            reps,
        )
        t_walk = _best(
            lambda: [
                decode_plane_reference(BitReader(f.payload), f.n_blocks) for f in frames
            ],
            reps,
        )

        qzzs = [np.asarray(f.qcoefs_zz, dtype=np.int32) for f in frames]

        def run_encode() -> None:
            for qzz in qzzs:
                writer = BitWriter()
                encode_plane(writer, qzz)
                writer.align()
                writer.getvalue()

        t_encode = _best(run_encode, reps)

    # Trace scenario: the full componentized SMP decode with tracing on
    # vs off.  The ratio is the real-world cost of causal observation --
    # the acceptance bar is under 2x.
    from repro.mjpeg import generate_stream
    from repro.mjpeg.components import build_smp_assembly
    from repro.runtime import SmpSimRuntime
    from repro.trace.tracer import enable_tracing

    trace_images = 2 if quick else 4
    trace_reps = 2 if quick else 3
    trace_stream = generate_stream(trace_images, 96, 96, quality=75, seed=0)

    def run_decode(tracing: bool) -> None:
        app = build_smp_assembly(trace_stream, use_stored_coefficients=True)
        rt = SmpSimRuntime()
        rt.deploy(app)
        if tracing:
            enable_tracing(rt)
        rt.start()
        rt.wait()
        rt.stop()

    t_untraced = _best(lambda: run_decode(False), trace_reps)
    t_traced = _best(lambda: run_decode(True), trace_reps)

    workload = {"images": n_images, "blocks": n_blocks_total, "reps": reps}
    if workers > 1:
        # Only stamped on sharded runs, so single-process output stays
        # byte-compatible with earlier revisions of this artifact.
        workload["workers"] = workers
    return {
        "suite": "mjpeg",
        "workload": workload,
        "trace_workload": {"images": trace_images, "reps": trace_reps},
        "benches": {
            "entropy_decode_lut": {
                "best_s": t_fast,
                "us_per_block": t_fast / n_blocks_total * 1e6,
            },
            "entropy_decode_walk_baseline": {
                "best_s": t_walk,
                "us_per_block": t_walk / n_blocks_total * 1e6,
            },
            "entropy_encode": {
                "best_s": t_encode,
                "us_per_block": t_encode / n_blocks_total * 1e6,
            },
            "smp_decode_untraced": {"best_s": t_untraced},
            "smp_decode_traced": {"best_s": t_traced},
        },
        "entropy_decode_speedup": t_walk / t_fast,
        "trace_overhead": t_traced / t_untraced,
    }


def _spin(n: int) -> int:
    """Pure-Python busy loop: the per-event compute of the sim_shards
    synthetic workload.  Real interpreter work, so per-shard busy time
    is real CPU time and the critical-path speedup is honest."""
    x = 0
    for i in range(n):
        x += i
    return x


def bench_sim_shards(quick: bool = False) -> Dict:
    """Scaling bench for the sharded conservative simulation.

    Synthetic workload: 16 chains x 4 stages = 64 components on the raw
    :mod:`repro.sim.shard` layer.  Stage ``s`` of chain ``c`` lives on
    shard ``(c + s) % n_shards``, so every chain hop is a cross-shard
    envelope under real lookahead bounds -- the adversarial layout for
    conservative synchronization, not the friendly one.

    On a single-CPU host the cooperative driver cannot show wall-clock
    scaling, so the headline figure is the **critical-path speedup**:
    serial busy seconds (1 shard) divided by the busiest shard's busy
    seconds at N shards -- the wall-clock speedup an N-CPU host would
    approach.  Raw wall time per shard count is reported alongside so
    the coordination overhead stays visible.
    """
    from repro.sim.mailbox import Envelope
    from repro.sim.shard import Shard, ShardedSimulation, merge_shard_results

    n_chains, n_stages = 16, 4
    n_items = 8 if quick else 32
    spin = 400 if quick else 1500
    reps = 2 if quick else 3
    link_ns = 100
    compute_ns = 1_000
    gap_ns = 500

    def run_once(n_shards: int):
        shards = [Shard(i) for i in range(n_shards)]
        sim = ShardedSimulation(shards)
        shard_of = {
            (c, s): (c + s) % n_shards
            for c in range(n_chains)
            for s in range(n_stages)
        }
        for c in range(n_chains):
            for s in range(n_stages - 1):
                sim.add_link(shard_of[(c, s)], shard_of[(c, s + 1)], link_ns)
        for k in range(n_shards):
            # Self-lookahead: a same-shard hop never lands earlier than
            # compute + link after its send.
            sim.add_link(k, k, compute_ns + link_ns)
        events = [0] * n_shards

        def handler(c: int, s: int, seq: int, t: int) -> None:
            me = shard_of[(c, s)]
            _spin(spin)
            events[me] += 1
            if s + 1 < n_stages:
                dst = shard_of[(c, s + 1)]
                send = t + compute_ns
                env = Envelope(
                    send + link_ns, send, f"c{c}", f"s{s}", seq,
                    lambda: handler(c, s + 1, seq, send + link_ns),
                )
                if dst == me:
                    shards[dst].stage(env)
                else:
                    shards[dst].post(env)

        # Source: n_items items enter stage 0 of every chain, spaced by
        # gap_ns, staged before the run starts.
        for c in range(n_chains):
            src = shard_of[(c, 0)]
            for i in range(n_items):
                t = (i + 1) * gap_ns
                shards[src].stage(
                    Envelope(t, 0, "", f"c{c}", i, lambda c=c, i=i, t=t: handler(c, 0, i, t))
                )

        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        per_shard = [{"events": events[k], "busy_s": shards[k].busy_s} for k in range(n_shards)]
        merged = merge_shard_results(per_shard, ("events", "busy_s"))
        return {
            "wall_s": wall,
            "sweeps": sim.sweeps,
            "events": merged["events"],
            "busy_s": merged["busy_s"],
            "max_shard_busy_s": max(p["busy_s"] for p in per_shard),
        }

    expected_events = n_chains * n_stages * n_items
    by_shards: Dict[str, Dict] = {}
    for n_shards in (1, 2, 4):
        best = None
        for _ in range(reps):
            result = run_once(n_shards)
            if result["events"] != expected_events:
                raise AssertionError(
                    f"sim_shards at {n_shards} shards executed {result['events']} "
                    f"events, expected {expected_events}"
                )
            if best is None or result["wall_s"] < best["wall_s"]:
                best = result
        by_shards[str(n_shards)] = best

    # Envelope hot-path micro-bench: construct-push-release through the
    # staging heap, with the src/iface strings repeating the way real
    # component graphs repeat them -- the case `sys.intern` in
    # Envelope.__new__ targets (the heap's C tuple comparison
    # short-circuits on identical strings).
    from repro.sim.mailbox import Staging

    n_envs = 20_000 if quick else 100_000
    noop = lambda: None  # noqa: E731
    # Names are built once, outside the timed loop, so the bench times
    # envelopes rather than string formatting.
    srcs = ["c%d" % k for k in range(64)]
    ifaces = ["s%d" % k for k in range(4)]

    def run_envelopes() -> None:
        staging = Staging()
        push = staging.push
        for i in range(n_envs):
            push(Envelope(i + 1, i, srcs[i % 64], ifaces[i % 4], i, noop))
        staging.release_batched(n_envs + 2, lambda t, cb: None)

    t_envs = _best(run_envelopes, reps)

    serial_busy = by_shards["1"]["busy_s"]
    return {
        "components": n_chains * n_stages,
        "chains": n_chains,
        "stages": n_stages,
        "items": n_items,
        "events": expected_events,
        "reps": reps,
        "basis": (
            "critical_path: speedup_N = busy_s(1 shard) / max per-shard "
            "busy_s(N shards); wall-clock scaling needs >= N CPUs"
        ),
        "shards": by_shards,
        "speedup_2": serial_busy / by_shards["2"]["max_shard_busy_s"],
        "speedup_4": serial_busy / by_shards["4"]["max_shard_busy_s"],
        "envelope": {
            "envelopes": n_envs,
            "best_s": t_envs,
            "ns_per_envelope": t_envs / n_envs * 1e9,
        },
    }


def bench_sim_scale(quick: bool = False) -> Dict:
    """10k-component scaling bench over the traffic workload.

    Runs :func:`repro.workloads.traffic.run_traffic` at each size x
    shard count, asserts the trace digest is identical across shard
    counts (scaling numbers for a diverging simulation are meaningless),
    and reports wall events/sec, the per-event cost at 1 shard (the
    flat-cost claim), the critical-path speedup (same basis as
    ``sim_shards``), the cross-shard batch factor and the process peak
    RSS.  ``ru_maxrss`` is a process-wide high-water mark, so the RSS
    column is only meaningful read smallest-size-first (sizes run in
    ascending order).
    """
    import resource

    from repro.workloads import TrafficConfig, run_traffic
    from repro.workloads.traffic import build_traffic_graph

    sizes = (256, 1000) if quick else (1000, 4000, 10000)
    shard_counts = (1, 2, 4)
    ticks = 2 if quick else 3
    spin = 40 if quick else 120
    reps = 1 if quick else 2

    by_size: Dict[str, Dict] = {}
    for size in sizes:
        config = TrafficConfig(n_components=size, ticks=ticks, spin=spin)
        graph = build_traffic_graph(config)
        rows: Dict[str, Dict] = {}
        digests = set()
        events = 0
        for n_shards in shard_counts:
            best = None
            for _ in range(reps):
                result = run_traffic(config, n_shards, graph=graph)
                if best is None or result["wall_s"] < best["wall_s"]:
                    best = result
            digests.add(best["digest"])
            events = best["events"]
            rows[str(n_shards)] = {
                "wall_s": best["wall_s"],
                "events_per_s": best["events"] / best["wall_s"],
                "busy_s": best["busy_s"],
                "max_shard_busy_s": best["max_shard_busy_s"],
                "sweeps": best["sweeps"],
                "batch_factor": best["batch_factor"],
            }
        if len(digests) != 1:
            raise AssertionError(
                f"sim_scale at {size} components: trace digest diverged "
                f"across shard counts {shard_counts}: {sorted(digests)}"
            )
        serial_busy = rows["1"]["busy_s"]
        by_size[str(size)] = {
            "events": events,
            "digest": next(iter(digests)),
            "shards": rows,
            "ns_per_event_1shard": rows["1"]["wall_s"] / events * 1e9,
            "speedup_2": serial_busy / rows["2"]["max_shard_busy_s"],
            "speedup_4": serial_busy / rows["4"]["max_shard_busy_s"],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    largest = by_size[str(sizes[-1])]
    return {
        "sizes": list(sizes),
        "ticks": ticks,
        "spin": spin,
        "reps": reps,
        "basis": (
            "critical_path: speedup_N = busy_s(1 shard) / max per-shard "
            "busy_s(N shards); events_per_s is wall-clock on this host"
        ),
        "by_size": by_size,
        "components": sizes[-1],
        "speedup_2": largest["speedup_2"],
        "speedup_4": largest["speedup_4"],
        "events_per_s_1shard": largest["shards"]["1"]["events_per_s"],
        "events_per_s_4shards": largest["shards"]["4"]["events_per_s"],
        "batch_factor_4shards": largest["shards"]["4"]["batch_factor"],
    }


def bench_kernel(quick: bool = False) -> Dict:
    """Kernel + tracing benches; returns the BENCH_kernel.json payload."""
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process, Timeout
    from repro.sim.resources import Channel
    from repro.trace.tracer import TraceBuffer, Tracer

    n_events = 20_000 if quick else 200_000
    n_msgs = 5_000 if quick else 50_000
    n_cancel = 10_000 if quick else 100_000
    n_emit = 20_000 if quick else 200_000
    reps = 3 if quick else 5

    def run_schedule() -> None:
        kernel = Kernel()
        noop = lambda: None  # noqa: E731
        for i in range(n_events):
            kernel.schedule(i % 97, noop)
        kernel.run()

    t_schedule = _best(run_schedule, reps)

    def run_pingpong() -> None:
        kernel = Kernel()
        chan = Channel(kernel, name="bench")

        def producer():
            # yield between puts so every get really blocks and every
            # wakeup rides the call_soon fast path
            for i in range(n_msgs):
                chan.put(i)
                yield Timeout(0)

        def consumer():
            for _ in range(n_msgs):
                yield from chan.get()

        Process(kernel, consumer(), name="consumer")
        Process(kernel, producer(), name="producer")
        kernel.run()

    t_pingpong = _best(run_pingpong, reps)

    def run_cancel() -> None:
        kernel = Kernel()
        noop = lambda: None  # noqa: E731
        handles = [kernel.schedule(i + 1, noop) for i in range(n_cancel)]
        # Cancel every handle not on the immediate frontier; compaction
        # keeps the heap from holding dead entries until their time.
        for handle in handles[100:]:
            handle.cancel()
        kernel.run()

    t_cancel = _best(run_cancel, reps)

    # Deadline-timer churn: the receive-with-deadline pattern where the
    # message beats the timer, so every timer is scheduled then
    # cancelled.  Each cancel leaves a heap tombstone; compaction drops
    # them once they are both numerous and half of the heap.
    def run_timer_churn() -> None:
        kernel = Kernel()
        noop = lambda: None  # noqa: E731
        remaining = [n_cancel]
        pending = [None]

        def deliver() -> None:
            if pending[0] is not None:
                pending[0].cancel()  # the "message" wins the race
                pending[0] = None
            if remaining[0] > 0:
                remaining[0] -= 1
                pending[0] = kernel.schedule_timer(5_000, noop)
                kernel.schedule(7, deliver)

        deliver()
        kernel.run()

    t_timer = _best(run_timer_churn, reps)

    def run_emit() -> None:
        buffer = TraceBuffer(capacity=n_emit)
        tracer = Tracer(buffer, "bench", lambda: 0)
        emit = tracer.emit
        for _ in range(n_emit):
            emit("compute", "op", "I", units=1)

    t_emit = _best(run_emit, reps)

    # Observation-probe hot path: one record_send per message.  With the
    # deferred tuple-buffer this is a single list append; the timer math
    # and per-interface dict inserts are folded at report time (and the
    # fold is included here via the final report build, so the figure is
    # end-to-end honest).
    from repro.core.messages import DATA, Message
    from repro.core.observation import MIDDLEWARE_LEVEL, ObservationProbe

    class _BenchComponent:
        name = "bench"

        @staticmethod
        def interfaces():
            return {}

    n_records = 20_000 if quick else 200_000
    message = Message(payload=None, kind=DATA, size_bytes=64, src="bench")

    def run_probe() -> None:
        probe = ObservationProbe(_BenchComponent())
        record = probe.record_send
        for _ in range(n_records):
            record("out", message, 120)
        probe.report(MIDDLEWARE_LEVEL)

    t_probe = _best(run_probe, reps)

    # Always-on telemetry overhead (the live metrics plane): the full
    # MJPEG SMP decode with and without `enable_telemetry`, timed as
    # interleaved pairs on CPU time with the GC parked during the timed
    # section.  Wall clock and a fixed arm order both measured noisier
    # than the effect being gated (scheduler preemption lands in one
    # arm, allocation bursts trigger GC pauses at random, and sustained
    # load drifts core frequency between arms), so this scenario keeps
    # its own protocol instead of `_best` and compares best-of-arm
    # ratios.  Both arms time `rt.collect()` too: folds the probe defers
    # to read time must be billed to the arm that pays them, not escape
    # the timed section.  The 1.05x budget is enforced by `--check` (CI).
    import gc

    from repro.metrics import enable_telemetry
    from repro.mjpeg.components import build_smp_assembly
    from repro.mjpeg.stream import generate_stream
    from repro.runtime.simulated import SmpSimRuntime

    # Quick mode keeps the full 8-image workload: shrinking it raises
    # the noise floor past the 1.05x budget the gate enforces -- only
    # the pair count is reduced.
    tel_images = 8
    tel_pairs = 6 if quick else 10
    tel_stream = generate_stream(tel_images, 96, 96, quality=75, seed=1)

    def run_telemetry_arm(with_telemetry: bool) -> float:
        app = build_smp_assembly(tel_stream)
        rt = SmpSimRuntime()
        rt.deploy(app)
        if with_telemetry:
            enable_telemetry(rt)
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            rt.start()
            rt.wait()
            rt.collect()
            elapsed = time.process_time() - t0
        finally:
            gc.enable()
        rt.stop()
        return elapsed

    run_telemetry_arm(False)  # warm both code paths before timing
    run_telemetry_arm(True)
    plain_best = telemetry_best = float("inf")
    for pair in range(tel_pairs):
        if pair % 2:  # alternate arm order: cancels frequency drift
            t_on = run_telemetry_arm(True)
            t_off = run_telemetry_arm(False)
        else:
            t_off = run_telemetry_arm(False)
            t_on = run_telemetry_arm(True)
        plain_best = min(plain_best, t_off)
        telemetry_best = min(telemetry_best, t_on)
    telemetry_overhead = telemetry_best / plain_best

    # Faults / recovery scenario (ROADMAP): simulated makespan of the
    # MJPEG SMP decode fault-free, supervised under chaos, and supervised
    # with exactly-once recovery -- plus the amortised per-restart
    # overhead and the recovery bookkeeping volumes.  Makespans are
    # virtual (simulated) time, so the numbers are deterministic.
    from repro.faults import run_chaos_campaign
    from repro.mjpeg.components import build_smp_assembly
    from repro.mjpeg.stream import generate_stream
    from repro.runtime.simulated import SmpSimRuntime

    n_images = 4 if quick else 8
    stream = generate_stream(n_images, 96, 96, quality=75, seed=1)
    baseline_app = build_smp_assembly(stream, use_stored_coefficients=True)
    baseline_rt = SmpSimRuntime()
    baseline_rt.run(baseline_app)
    baseline_rt.stop()
    baseline_ns = baseline_rt.makespan_ns or 0

    plain = run_chaos_campaign(seed=1, n_images=n_images)
    recovered = run_chaos_campaign(seed=1, n_images=n_images, recover=True)
    per_restart_ns = (
        (recovered.makespan_ns - baseline_ns) // recovered.restarts
        if recovered.restarts
        else 0
    )

    # Durable-recovery scenario (ROADMAP: WAL + on-disk checkpoints):
    # WAL append throughput and checkpoint-commit / cold-restore latency.
    # fsync="never" so the figures measure the record format and pickle
    # path, not the host's disk -- the fsync policies only add I/O waits
    # on top of exactly this work.
    import shutil
    import tempfile

    from repro.recovery.durable import DurableStore
    from repro.recovery.wal import WriteAheadLog

    n_wal = 2_000 if quick else 20_000
    n_ckpt = 20 if quick else 100
    wal_record = {
        "t": "send",
        "key": ("Fetch", "fetchIdct1"),
        "dseq": 1,
        "uid": 1,
        "target": ("IDCT_1", "_fetchIdct1"),
        "msg": {"payload": bytes(2048), "kind": "data", "tag": "batch",
                "src": "Fetch", "src_interface": "fetchIdct1", "seq": 1,
                "size_bytes": 2048, "span": 1, "cause": 0, "dseq": 1},
    }
    ckpt_state = {"pending": {i: bytes(512) for i in range(8)}, "completed": 0}

    scratch = tempfile.mkdtemp(prefix="repro-bench-durable-")
    try:
        wal_bytes = [0]

        def run_wal_append() -> None:
            path = os.path.join(scratch, "bench.wal")
            if os.path.exists(path):
                os.unlink(path)
            with WriteAheadLog(path, fsync="never") as wal:
                append = wal.append
                for _ in range(n_wal):
                    append(wal_record)
                wal.sync()
                wal_bytes[0] = wal.size_bytes()

        t_wal = _best(run_wal_append, reps)

        def make_store(root: str) -> DurableStore:
            return DurableStore(root, config={"bench": True}, fsync="never")

        def run_ckpt_commit() -> None:
            root = os.path.join(scratch, "store")
            shutil.rmtree(root, ignore_errors=True)
            store = make_store(root).open()
            for e in range(n_ckpt):
                ckpt = {"epoch": e, "state": ckpt_state,
                        "send": {("bench", "out"): e}, "rx": {}}
                store.commit_checkpoint("bench", ckpt, [])
            store.close()

        t_commit = _best(run_ckpt_commit, reps)
        # Cold-restore latency against the store the last commit rep left
        # behind: manifest + checkpoint load + full WAL scan.
        restore_root = os.path.join(scratch, "store")

        def run_restore() -> None:
            store = make_store(restore_root).open()
            restored = store.restore_state()
            store.close()
            if "bench" not in restored.checkpoints:
                raise AssertionError("cold restore lost the committed checkpoint")

        t_restore = _best(run_restore, reps)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Sharded-simulation scaling (ROADMAP: parallel kernel).  Same event
    # totals at every shard count or the bench raises -- scaling numbers
    # for a simulation that diverges would be meaningless.
    sim_shards = bench_sim_shards(quick)

    # 10k-component scaling over the traffic workload (ROADMAP: scale).
    sim_scale = bench_sim_scale(quick)

    return {
        "suite": "kernel",
        "workload": {
            "events": n_events,
            "messages": n_msgs,
            "cancels": n_cancel,
            "emits": n_emit,
            "probe_records": n_records,
            "reps": reps,
        },
        "benches": {
            "schedule_run": {
                "best_s": t_schedule,
                "ns_per_event": t_schedule / n_events * 1e9,
            },
            "channel_pingpong": {
                "best_s": t_pingpong,
                "ns_per_message": t_pingpong / n_msgs * 1e9,
            },
            "cancel_compact": {
                "best_s": t_cancel,
                "ns_per_cancel": t_cancel / n_cancel * 1e9,
            },
            "timer_churn": {
                "best_s": t_timer,
                "ns_per_timer": t_timer / n_cancel * 1e9,
            },
            "tracer_emit": {
                "best_s": t_emit,
                "ns_per_emit": t_emit / n_emit * 1e9,
            },
            "probe_record_send": {
                "best_s": t_probe,
                "ns_per_record": t_probe / n_records * 1e9,
            },
            "metrics_overhead": {
                "images": tel_images,
                "pairs": tel_pairs,
                "plain_best_s": plain_best,
                "telemetry_best_s": telemetry_best,
                "overhead": telemetry_overhead,
            },
            "faults_campaign": {
                "images": n_images,
                "baseline_makespan_ns": baseline_ns,
                "supervised_makespan_ns": plain.makespan_ns,
                "recovery_makespan_ns": recovered.makespan_ns,
                "restarts": recovered.restarts,
                "per_restart_overhead_ns": per_restart_ns,
                "frames_lost_without_recovery": len(plain.lost_frames),
                "replayed": recovered.recovery.get("replayed", 0),
                "deduped": recovered.recovery.get("deduped", 0),
                "checkpoints": recovered.recovery.get("checkpoints", 0),
                "exactly_once": recovered.ok,
            },
            "wal_append": {
                "best_s": t_wal,
                "records": n_wal,
                "ns_per_append": t_wal / n_wal * 1e9,
                "mb_per_s": wal_bytes[0] / t_wal / 1e6,
                "fsync": "never",
            },
            "checkpoint_restore": {
                "commit_best_s": t_commit,
                "commits": n_ckpt,
                "us_per_commit": t_commit / n_ckpt * 1e6,
                "restore_best_s": t_restore,
                "restore_ms": t_restore * 1e3,
                "fsync": "never",
            },
            "sim_shards": sim_shards,
            "sim_scale": sim_scale,
        },
    }


def _git_rev() -> Optional[str]:
    """Short git revision of the working tree, or None outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def _meta(quick: bool) -> Dict:
    """The ``meta`` block stamped into both artifacts: interpreter and
    machine for comparability, git rev + ISO timestamp so every number
    in the perf trajectory is attributable to one commit."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": quick,
        "git_rev": _git_rev(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


#: Benches the --check gate re-runs, with the per-op key to compare.
_CHECK_BENCHES = (
    ("schedule_run", "ns_per_event"),
    ("tracer_emit", "ns_per_emit"),
)

#: Maximum tolerated per-op regression versus the committed baseline.
_CHECK_TOLERANCE = 0.25

#: Absolute ceiling on the always-on telemetry overhead ratio (the
#: ``metrics_overhead`` scenario): not baseline-relative, because the
#: budget is a product promise -- the metrics plane must stay cheap
#: enough to leave enabled.
_METRICS_OVERHEAD_MAX = 1.05

#: Absolute floor on the sim_scale critical-path speedup at 4 shards
#: (largest size).  Critical-path basis is busy-time derived, so the
#: floor is mostly host-independent, but the static partition of the
#: skewed traffic graph legitimately leaves ~1.7x event imbalance and
#: loaded CI hosts add noise on top -- the floor sits safely below the
#: ~2-3.5x this bench measures, high enough to catch batching or
#: partitioning falling over (a broken cut measures ~1x).  (The
#: digest-equality assert lives in the bench itself and raises on
#: divergence.)
_SIM_SCALE_SPEEDUP_MIN = 1.5


def check_regressions(
    quick: bool = True, baseline_path: str = "BENCH_kernel.json"
) -> bool:
    """Perf-regression gate (``bench --quick --check``): re-run the
    kernel hot-path benches and compare per-op figures against the
    committed baseline.  Returns True when everything is within
    tolerance; prints one line per bench either way."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)["benches"]
    current = bench_kernel(quick)["benches"]
    ok = True
    for bench_name, per_op_key in _CHECK_BENCHES:
        old = baseline[bench_name][per_op_key]
        new = current[bench_name][per_op_key]
        ratio = new / old if old else float("inf")
        verdict = "ok"
        if ratio > 1.0 + _CHECK_TOLERANCE:
            verdict = f"REGRESSION (>{_CHECK_TOLERANCE:.0%} over baseline)"
            ok = False
        print(
            f"check {bench_name}: {new:.0f} vs baseline {old:.0f} {per_op_key}"
            f" ({ratio:.2f}x) {verdict}"
        )
    # Absolute budget, not baseline-relative: the 1.05x telemetry
    # overhead is a product promise.  Stubbed runs (the gate's own unit
    # tests) may omit the scenario.
    scenario = current.get("metrics_overhead")
    if scenario is not None:
        overhead = scenario["overhead"]
        verdict = "ok"
        if overhead > _METRICS_OVERHEAD_MAX:
            verdict = f"OVER BUDGET (>{_METRICS_OVERHEAD_MAX:.2f}x)"
            ok = False
        print(
            f"check metrics_overhead: {overhead:.3f}x"
            f" (budget {_METRICS_OVERHEAD_MAX:.2f}x) {verdict}"
        )
    # Likewise absolute: the 10k-scaling promise (digest equality across
    # shard counts is asserted inside the bench; a divergence raises).
    scale = current.get("sim_scale")
    if scale is not None:
        speedup = scale["speedup_4"]
        verdict = "ok"
        if speedup < _SIM_SCALE_SPEEDUP_MIN:
            verdict = f"UNDER FLOOR (<{_SIM_SCALE_SPEEDUP_MIN:.1f}x)"
            ok = False
        print(
            f"check sim_scale: {speedup:.2f}x critical-path speedup at 4 "
            f"shards / {scale['components']} components"
            f" (floor {_SIM_SCALE_SPEEDUP_MIN:.1f}x) {verdict}"
        )
    return ok


def run_benches(quick: bool = False, out_dir: str = ".", workers: int = 1) -> List[str]:
    """Run both suites and write the JSON artifacts; returns the paths.

    Artifacts are published atomically (temp file + ``os.replace``): the
    committed files double as the ``--check`` perf-gate baseline, and a
    crash mid-bench must leave the previous baseline intact rather than
    a half-written one.
    """
    from repro.recovery.durable import atomic_write_bytes

    meta = _meta(quick)
    paths = []
    for name, payload in (
        ("BENCH_kernel.json", bench_kernel(quick)),
        ("BENCH_mjpeg.json", bench_mjpeg(quick, workers=workers)),
    ):
        payload["meta"] = meta
        path = os.path.join(out_dir, name)
        atomic_write_bytes(path, json.dumps(payload, indent=2).encode())
        paths.append(path)
    return paths
