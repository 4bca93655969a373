"""The benchmark's workloads: closed batches, one seeded input each.

A workload is driven in four steps.  ``inputs(seed)`` generates the
input and ``build(inputs)`` assembles and deploys a fresh application;
together they are the set-up the benchmark times.  ``run(job)`` is one
whole run -- the timed part -- and returns an :class:`Outcome`.
``reference(inputs)`` computes the oracle once, untimed, and
``check(oracle, outcome)`` raises :class:`OracleError` when the run's
output is wrong.  Why each workload is in the set is written in
``BENCHMARK.json`` and ``bench/README.md``.

Every workload reports its simulated statistics in ``Outcome.model``:
model outputs, not speed, so a change meant only to make the simulator
faster must leave them identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Dict, List, Optional

from repro.core.contracts import InterfaceContract
from repro.faults import run_chaos_campaign
from repro.faults.campaign import frame_hashes
from repro.metrics import telemetry
from repro.metrics.export import metrics_digest
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly, frames_digest
from repro.mjpeg.decoder import decode_image
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime, Sti7200SimRuntime
from repro.trace import enable_tracing
from repro.workloads import TrafficConfig, run_traffic
from repro.workloads.traffic import build_traffic_graph

#: The per-message deadline the chaos campaign puts on the IDCT inputs.
DEADLINE_NS = 6_500_000


class OracleError(Exception):
    """A run finished but its output is wrong."""


@dataclass
class Outcome:
    """What one run produced."""

    #: Work units completed: decoded frames, or delivered traffic events.
    items: int
    #: Simulated statistics and output digests (exact, seed-determined).
    model: Dict[str, Any]
    #: Host ``perf_counter_ns`` of each frame completion, in order.
    frame_ns: List[int] = field(default_factory=list)
    #: Delivered frames by index (MJPEG workloads).
    frames: Dict[int, Any] = field(default_factory=dict)


def _sha(image) -> str:
    return hashlib.sha256(image.tobytes()).hexdigest()


def _reports_digest(reports) -> str:
    """sha256 of the observer's reports."""
    canonical = {f"{name}/{level}": report for (name, level), report in reports.items()}
    blob = json.dumps(canonical, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """Base of the six workloads; see the module docstring."""

    name = ""
    #: Runs a planes-off control beside every timed run (``obs_overhead``).
    paired = False

    def __init__(self, size: int, smoke_size: int) -> None:
        self.size = size
        self.smoke_size = smoke_size

    def inputs(self, seed: int, smoke: bool):
        raise NotImplementedError

    def build(self, inputs, planes: bool = True):
        return inputs

    def run(self, job) -> Outcome:
        raise NotImplementedError

    def reference(self, inputs):
        return None

    def check(self, oracle, outcome: Outcome) -> None:
        raise NotImplementedError


class _DecodeJob:
    """A deployed decode and the frames its sink has seen so far."""

    def __init__(self, runtime, planes: bool) -> None:
        self.app = None
        self.rt = runtime
        self.planes = planes
        self.frame_ns: List[int] = []
        self.frames: Dict[int, Any] = {}

    def sink(self, index: int, image) -> None:
        self.frame_ns.append(perf_counter_ns())
        self.frames[index] = image


class MjpegDecode(Workload):
    """The componentized MJPEG decode of a seeded 96x96 stream, with the
    real Huffman walk and the observer attached.  ``planes`` adds the
    observation planes -- tracing, telemetry and a deadline + ordering
    contract on every IDCT input -- and pairs each run with a
    planes-off control."""

    def __init__(self, name, size, smoke_size, runtime, sti7200=False, planes=False):
        super().__init__(size, smoke_size)
        self.name = name
        self.runtime = runtime
        self.sti7200 = sti7200
        self.paired = planes

    def inputs(self, seed: int, smoke: bool):
        n = self.smoke_size if smoke else self.size
        return generate_stream(n, 96, 96, quality=75, seed=seed)

    def build(self, stream, planes: bool = True) -> _DecodeJob:
        job = _DecodeJob(self.runtime(), planes and self.paired)
        if self.sti7200:
            job.app = build_sti7200_assembly(stream, keep_frames=True)
        else:
            job.app = build_smp_assembly(stream, frame_sink=job.sink)
        if job.planes:
            for i in range(1, 4):
                job.app.components[f"IDCT_{i}"].set_contract(
                    f"_fetchIdct{i}",
                    InterfaceContract(deadline_ns=DEADLINE_NS, ordered=True, name="idct-input"),
                )
        job.rt.deploy(job.app)
        if job.planes:
            enable_tracing(job.rt)
            telemetry.enable_telemetry(job.rt)
        return job

    def run(self, job: _DecodeJob) -> Outcome:
        rt = job.rt
        rt.start()
        rt.wait()
        reports = rt.collect()
        # Looked up at call time, so a traced run sees the wrapped function.
        registry = telemetry.collect_telemetry(rt) if job.planes else None
        rt.stop()
        frames = job.app.components["Fetch-Reorder"].frames if self.sti7200 else job.frames
        model = {
            "makespan_ns": rt.makespan_ns,
            "frames": len(frames),
            "frames_digest": frames_digest(frames),
            "reports_digest": _reports_digest(reports),
        }
        if registry is not None:
            model["metrics_digest"] = metrics_digest(registry)
        if isinstance(rt, ShardedSmpSimRuntime):
            used = {rt.shard_of(name) for name in job.app.components}
            model["idle_shards"] = rt.n_shards - len(used)
        return Outcome(len(frames), model, job.frame_ns, frames)

    def reference(self, stream) -> Dict[int, str]:
        """sha256 of every frame decoded in one call, outside the
        pipeline; frame 0 only primes the entropy state."""
        return {
            r.index: _sha(decode_image(r.frame.payload, stream.height, stream.width, stream.quality))
            for r in stream.records[1:]
        }

    def check(self, oracle: Dict[int, str], outcome: Outcome) -> None:
        got = {index: _sha(image) for index, image in outcome.frames.items()}
        if got != oracle:
            wrong = sorted(i for i in oracle if got.get(i) != oracle[i])
            raise OracleError(
                f"{len(wrong)} of {len(oracle)} frames differ from the reference decode"
                f" (first {wrong[:5]}); {len(set(got) - set(oracle))} unexpected"
            )
        if outcome.model.get("idle_shards"):
            raise OracleError(f"{outcome.model['idle_shards']} shard(s) host no component")


class Traffic(Workload):
    """The seeded fan-in/fan-out service graph on the raw shard layer,
    cooperative driving, batched release."""

    name = "traffic_10k"

    def __init__(self, size, smoke_size, ticks, smoke_ticks, shards) -> None:
        super().__init__(size, smoke_size)
        self.ticks = ticks
        self.smoke_ticks = smoke_ticks
        self.shards = shards

    def inputs(self, seed: int, smoke: bool):
        config = TrafficConfig(
            n_components=self.smoke_size if smoke else self.size,
            ticks=self.smoke_ticks if smoke else self.ticks,
            seed=seed,
        )
        return config, build_traffic_graph(config)

    def run(self, job, shards: Optional[int] = None) -> Outcome:
        config, graph = job
        # run_traffic raises unless events == requests * (2 + 2 * fanout).
        result = run_traffic(config, shards or self.shards, graph=graph)
        model = {
            "makespan_ns": result["makespan_ns"],
            "events": result["events"],
            "digest": result["digest"],
        }
        return Outcome(result["events"], model)

    def reference(self, job) -> str:
        """The trace digest of a 1-shard run."""
        return self.run(job, shards=1).model["digest"]

    def check(self, oracle: str, outcome: Outcome) -> None:
        if outcome.model["digest"] != oracle:
            raise OracleError("trace digest differs from the 1-shard run")


class ChaosRecover(Workload):
    """A seeded chaos campaign (crashes, drops, duplicates) with
    exactly-once recovery, supervision, trace and telemetry on."""

    name = "chaos_recover"

    def inputs(self, seed: int, smoke: bool):
        """The campaign's fault-free reference, computed once the way a
        fleet caches it, so the timed run holds only the chaos run."""
        n = self.smoke_size if smoke else self.size
        stream = generate_stream(n, 96, 96, quality=75, seed=seed)
        app = build_smp_assembly(
            stream, use_stored_coefficients=True, keep_frames=True, with_observer=False
        )
        rt = SmpSimRuntime()
        rt.run(app)
        rt.stop()
        reference = app.components["Reorder"].frames
        return seed, n, frame_hashes(reference), frames_digest(reference)

    def run(self, job) -> Outcome:
        seed, n, hashes, digest = job
        result = run_chaos_campaign(
            seed, n_images=n, recover=True, reference_hashes=hashes, reference_digest=digest
        )
        model = {
            "makespan_ns": result.makespan_ns,
            "frames": result.frames_delivered,
            "digest": result.digest,
            "ok": result.ok,
        }
        return Outcome(result.frames_delivered, model)

    def check(self, oracle, outcome: Outcome) -> None:
        if not outcome.model["ok"]:
            raise OracleError("campaign lost or duplicated frames (result.ok is false)")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        MjpegDecode("smp_decode", size=192, smoke_size=8, runtime=SmpSimRuntime),
        MjpegDecode("smp_observed", size=96, smoke_size=8, runtime=SmpSimRuntime, planes=True),
        MjpegDecode(
            "sharded_decode", size=96, smoke_size=8,
            runtime=lambda: ShardedSmpSimRuntime(4),
        ),
        MjpegDecode(
            "sti7200_decode", size=192, smoke_size=8, runtime=Sti7200SimRuntime, sti7200=True,
        ),
        Traffic(size=10_000, smoke_size=1_000, ticks=3, smoke_ticks=1, shards=4),
        ChaosRecover(size=128, smoke_size=16),
    )
}
