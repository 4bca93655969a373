"""Seeded chaos campaigns over the MJPEG SMP demo.

A campaign is two simulated runs of the same synthetic MJPEG stream on
the 16-core SMP model:

1. a **reference** run without faults, recording every decoded frame;
2. a **chaos** run with a seed-derived :class:`~repro.faults.plan.FaultPlan`
   (component crashes at deterministic receive counts, probabilistic
   message drops and duplicates on named connections), supervised under
   one named policy of :data:`POLICIES`, traced, and observed.

The contract checked by :func:`run_chaos_campaign` is the paper-style
robustness claim: despite crashes and message loss the application
*completes*, every frame that survives is **bit-identical** to the
reference run, and the recovery itself is visible through the ordinary
observation machinery (fault counters, restart counts, MTTR, trace
events) -- with zero changes to behaviour code.

Replaying the same seed reproduces the fault schedule, the recovery
timeline and the output digest bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.contracts import InterfaceContract
from repro.core.observation import APPLICATION_LEVEL
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.supervisor import (
    JITTER_FULL,
    RESTART,
    DegradePolicy,
    HaltPolicy,
    RestartPolicy,
    Supervisor,
)
from repro.metrics.telemetry import collect_telemetry, enable_telemetry
from repro.mjpeg.components import BATCHES_PER_IMAGE, build_smp_assembly, frames_digest
from repro.mjpeg.stream import generate_stream
from repro.recovery import RecoveryManager
from repro.runtime.simulated import ShardedSmpSimRuntime, SmpSimRuntime
from repro.sim.rng import RngRegistry
from repro.trace.tracer import collect_trace, enable_tracing

#: IDCT workers of the SMP assembly (crash victims, round-robin).
_IDCTS = ("IDCT_1", "IDCT_2", "IDCT_3")

#: Per-message delivery deadline (microseconds) attached to the decode
#: pipeline's inbound interfaces of every chaos run.
#: Chosen just above the fault-free latency envelope of the 8-image
#: stream (data-message max ~5.84 ms, seed-independent), so violations
#: are *fault-induced*: plain drops and crashes never add latency, but
#: exactly-once recovery replays carry their original send timestamp
#: through the restart backoff and land at 7.1-8.4 ms -- every campaign
#: seed trips the deadline under ``--recover``, a clean run never does.
DEADLINE_US = 6_500

#: End-of-stream-under-loss deadline for runs whose policy can
#: permanently sever an upstream (degrade/halt): the Reorder stage stops
#: waiting after this much *virtual* silence.  Far above any restart
#: backoff or stall (< 5 ms), so it only fires on genuine upstream death.
QUIESCENCE_NS = 50_000_000


@dataclass(frozen=True)
class PolicyProfile:
    """How one named supervision policy maps onto a chaos run."""

    name: str
    #: Oracle mode for :attr:`CampaignResult.ok` (fleet cells use it).
    oracle: str
    #: Builds a fresh supervision policy object for one run.
    factory: Callable[[], Any]
    #: Install exactly-once recovery alongside the supervisor.
    recover: bool = False
    #: The policy can sever an upstream for good (degrade/halt): the run
    #: records an application failure in its result instead of raising,
    #: and the Reorder stage counts its live upstreams with a quiescence
    #: deadline.
    severs: bool = False

    @property
    def sharded_ok(self) -> bool:
        """Valid on the sharded platform (recovery is single-kernel only)."""
        return not self.recover

    def build(self):
        """A fresh policy object for one run."""
        return self.factory()


def _restart(**extra) -> Callable[[], RestartPolicy]:
    return lambda: RestartPolicy(max_attempts=5, base_backoff_ns=200_000, **extra)


#: Every supervision policy a chaos run can name.
POLICIES: Dict[str, PolicyProfile] = {
    "restart": PolicyProfile("restart", "progress", _restart()),
    "restart-jitter": PolicyProfile(
        "restart-jitter", "progress", _restart(jitter_mode=JITTER_FULL)
    ),
    "degrade": PolicyProfile(
        "degrade", "survivors", lambda: DegradePolicy(detach_outbound=True), severs=True
    ),
    "halt": PolicyProfile("halt", "survivors", HaltPolicy, severs=True),
    "recover": PolicyProfile("recover", "exact", _restart(), recover=True),
}


def attach_campaign_contracts(app, deadline_us: int = DEADLINE_US) -> None:
    """Attach the campaign's QoS contracts to the decode pipeline.

    Every IDCT input gets a per-message delivery deadline; the Reorder
    input additionally requires per-sender ordering, which injected
    duplicates violate unless exactly-once recovery dedups them first --
    so ordering violations count the duplicates that *reached* the
    application.
    """
    deadline_ns = deadline_us * 1_000
    for name in _IDCTS:
        comp = app.components[name]
        for prov in comp.functional_provided():
            comp.set_contract(
                prov.name,
                InterfaceContract(deadline_ns=deadline_ns, name="idct-input"),
            )
    app.components["Reorder"].set_contract(
        "idctReorder",
        InterfaceContract(deadline_ns=deadline_ns, ordered=True, name="reorder-input"),
    )


@dataclass
class CampaignResult:
    """Everything a chaos campaign run produced."""

    seed: int
    n_images: int
    plan: List[Dict[str, Any]]
    schedule: List[Dict[str, Any]]  # the injector's chronological fault log
    supervision: List[Dict[str, Any]]
    injected: Dict[str, int]
    restarts: int
    mttr_us: int
    frames_expected: int
    frames_delivered: int
    lost_frames: List[int] = field(default_factory=list)
    bit_exact: bool = False
    digest: str = ""
    makespan_ns: int = 0
    fault_trace_events: int = 0
    recover: bool = False
    recovery: Dict[str, Any] = field(default_factory=dict)
    frames_digest: str = ""
    reference_frames_digest: str = ""
    #: Merged telemetry registry of the chaos run (None when a failed
    #: run left none to collect).
    metrics: Any = None
    #: Contract violations observed live, keyed ``kind`` -> count.
    contract_violations: Dict[str, int] = field(default_factory=dict)
    #: ``contract``-category trace events emitted by the checkers.
    contract_trace_events: int = 0
    #: Shard count the chaos run executed on (1 = single-kernel runtime).
    shards: int = 1
    #: ``repr`` of the application-level error when the run did not
    #: complete (halt-policy propagation, escalation past max attempts).
    #: Empty for clean completion.
    error: str = ""
    #: Oracle mode (see :meth:`ok`): ``progress`` (default), ``survivors``
    #: (tolerates zero delivered frames -- halt/degrade policies may
    #: legitimately lose everything), or ``exact`` (forced exactly-once).
    oracle: str = "progress"
    #: Total restart backoff the supervisor spent, in nanoseconds (one
    #: ingredient of the Pareto restart-overhead axis).
    backoff_total_ns: int = 0

    @property
    def ok(self) -> bool:
        """Campaign invariant.

        Without recovery: the run completed and every *surviving* frame is
        bit-exact (dropped frames are tolerated).  With recovery (or the
        ``exact`` oracle) the claim is exactly-once: the **complete** frame
        set must come out, and its digest must equal the fault-free
        reference digest bit for bit.  The ``survivors`` oracle -- used by
        fleet cells running halt/degrade policies, where losing the whole
        tail of the stream is the *expected* trade-off -- only requires
        that whatever survived is bit-exact.
        """
        if self.recover or self.oracle == "exact":
            return (
                self.bit_exact
                and not self.lost_frames
                and self.frames_delivered == self.frames_expected
                and self.frames_digest == self.reference_frames_digest
            )
        if self.oracle == "survivors":
            return self.bit_exact
        return self.bit_exact and self.frames_delivered > 0 and not self.error

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly condensed result (CLI / CI output)."""
        return {
            "seed": self.seed,
            "n_images": self.n_images,
            "injected": self.injected,
            "restarts": self.restarts,
            "mttr_us": self.mttr_us,
            "frames_expected": self.frames_expected,
            "frames_delivered": self.frames_delivered,
            "lost_frames": self.lost_frames,
            "bit_exact": self.bit_exact,
            "fault_trace_events": self.fault_trace_events,
            "digest": self.digest,
            "recover": self.recover,
            "recovery": self.recovery,
            "frames_digest": self.frames_digest,
            "reference_frames_digest": self.reference_frames_digest,
            "contract_violations": self.contract_violations,
            "contract_trace_events": self.contract_trace_events,
            "shards": self.shards,
            "error": self.error,
            "oracle": self.oracle,
            "backoff_total_ns": self.backoff_total_ns,
            "makespan_ns": self.makespan_ns,
            "ok": self.ok,
        }

    def record(self) -> Dict[str, Any]:
        """The deterministic per-run record a fleet cell persists:
        :meth:`summary` without the fields its cell spec already holds,
        and with only the scalar recovery counters."""
        out = self.summary()
        for key in ("seed", "n_images", "recover", "shards"):
            del out[key]
        out["recovery"] = {
            key: value
            for key, value in self.recovery.items()
            if isinstance(value, (int, bool))
        }
        return out


def draw_receive_counts(
    seed: int, stream: str, count: int, per_idct: int
) -> List[Tuple[str, int]]:
    """``count`` distinct (IDCT worker, receive count) triggers drawn
    from the named ``stream`` of ``seed``: workers round-robin, each
    count in ``[2, per_idct)``."""
    rng = RngRegistry(seed).stream(stream)
    used: List[Tuple[str, int]] = []
    for k in range(count):
        component = _IDCTS[k % len(_IDCTS)]
        while True:
            trigger = (component, int(rng.integers(2, per_idct)))
            if trigger not in used:
                used.append(trigger)
                break
    return used


def build_campaign_plan(
    seed: int,
    n_images: int,
    drop_rate: float = 0.05,
    crashes: int = 3,
    duplicate_rate: float = 0.05,
    kill9s: int = 0,
) -> FaultPlan:
    """Derive the deterministic fault plan for one campaign seed.

    Crashes hit the IDCT workers round-robin at receive counts drawn from
    the ``campaign.schedule`` stream; drops hit the ``IDCT_2 ->
    idctReorder`` connection (one lossy link, so most frames survive);
    duplicates hit ``IDCT_1 -> idctReorder`` (the reassembly stage must
    dedupe them).

    ``kill9s`` adds process-level SIGKILL faults (round-robin over the
    IDCT workers, triggered after distinct durable-frame counts drawn
    from the separate ``campaign.kill9`` stream, so existing seeds keep
    their exact in-process schedules).  These cannot be injected by
    :class:`~repro.faults.injector.FaultInjector` -- the kill-9
    supervisor of :mod:`repro.recovery.supervised` executes them.
    """
    if n_images < 3:
        raise ValueError(f"campaign needs at least 3 images, got {n_images}")
    per_idct = (n_images - 1) * BATCHES_PER_IMAGE // len(_IDCTS)
    if per_idct < 4:
        raise ValueError("stream too short for the crash schedule")
    plan = FaultPlan(seed)
    for component, on_receive in draw_receive_counts(
        seed, "campaign.schedule", crashes, per_idct
    ):
        plan.crash(component, on_receive=on_receive)
    if drop_rate > 0:
        plan.drop("IDCT_2", "idctReorder", probability=drop_rate)
    if duplicate_rate > 0:
        plan.duplicate("IDCT_1", "idctReorder", probability=duplicate_rate)
    if kill9s:
        if kill9s >= n_images - 1:
            raise ValueError(
                f"at most {n_images - 2} kill9 faults fit a {n_images}-image stream"
            )
        kill_rng = RngRegistry(seed).stream("campaign.kill9")
        thresholds: set = set()
        while len(thresholds) < kill9s:
            thresholds.add(int(kill_rng.integers(1, n_images - 1)))
        for k, after in enumerate(sorted(thresholds)):
            plan.kill9(_IDCTS[k % len(_IDCTS)], after_frames=after)
    return plan


def reference_oracle(stream, shards: int = 1) -> Tuple[Dict[int, str], str]:
    """The fault-free run distilled into the bit-exactness oracle:
    ``(per-frame sha256 hashes, frame-set digest)``.

    ``shards`` selects the platform variant (the sharded conservative
    simulation for ``shards > 1``); the decoded pixels are shard-count
    invariant, but fleet campaigns cache one reference per platform so
    the oracle never crosses runtimes.
    """
    app = build_smp_assembly(
        stream, use_stored_coefficients=True, keep_frames=True, with_observer=False
    )
    rt = ShardedSmpSimRuntime(shards) if shards > 1 else SmpSimRuntime()
    rt.run(app)
    rt.stop()
    frames = app.components["Reorder"].frames
    return frame_hashes(frames), frames_digest(frames)


def frame_hashes(frames: Dict[int, np.ndarray]) -> Dict[int, str]:
    """Per-frame sha256 of the raw pixel bytes -- the cacheable form of
    the bit-exactness oracle.  Fleet campaigns persist these once per
    (platform, seed) instead of shipping reference pixels to every cell."""
    return {
        index: hashlib.sha256(image.tobytes()).hexdigest()
        for index, image in frames.items()
    }


def run_chaos_campaign(
    seed: int = 0,
    n_images: int = 10,
    recover: bool = False,
    deadline_us: int = DEADLINE_US,
    plan: FaultPlan = None,
    policy: str = "restart",
    shards: int = 1,
    oracle: str = "progress",
    reference_hashes: Dict[int, str] = None,
    reference_digest: str = "",
) -> CampaignResult:
    """Run one seeded chaos campaign; see the module docstring.

    ``policy`` names the supervision profile in :data:`POLICIES`.
    ``recover=True`` selects the ``recover`` profile: a
    :class:`~repro.recovery.RecoveryManager` is installed alongside the
    supervisor, upgrading the claim from "survivors are bit-exact" to
    exactly-once -- the complete frame set is reproduced bit-identically
    despite crashes, drops and duplicates.  Recovery on the sharded
    runtime is refused when the manager is installed.

    The chaos run carries the live telemetry plane: per-interface
    latency histograms, restart/MTTR series, and the QoS contracts of
    :func:`attach_campaign_contracts` checked message-by-message.
    Deadline violations surface recovery replays that arrive past
    ``deadline_us``; ordering violations count injected duplicates that
    reached the application (zero under exactly-once recovery, which
    dedups them at admission).

    The remaining keywords are the fleet-cell hooks
    (:mod:`repro.faults.fleet` fans hundreds of these out across a worker
    pool): an explicit ``plan`` replaces :func:`build_campaign_plan`,
    ``shards`` runs the chaos application on the conservative sharded
    simulation, ``oracle`` relaxes or tightens :attr:`CampaignResult.ok`
    per policy expectation, and ``reference_hashes`` /
    ``reference_digest`` substitute a cached per-frame-sha256 reference
    for the in-process fault-free run.  A policy that severs upstreams
    (degrade/halt) records an application failure in the result instead
    of raising: those runs *expect* to fail.
    """
    if recover and policy not in ("restart", "recover"):
        raise ValueError(f"recover=True selects the recover policy, not {policy!r}")
    profile = POLICIES["recover" if recover else policy]
    stream = generate_stream(n_images, 96, 96, quality=75, seed=seed)
    if reference_hashes is None:
        reference_hashes, reference_digest = reference_oracle(stream)
    elif not reference_digest:
        raise ValueError("reference_hashes needs the matching reference_digest")

    if plan is None:
        plan = build_campaign_plan(seed, n_images)
    plan.validate()
    app = build_smp_assembly(
        stream,
        use_stored_coefficients=True,
        keep_frames=True,
        with_observer=True,
        drop_incomplete=True,
        dynamic_upstream=profile.severs,
        quiescence_timeout_ns=QUIESCENCE_NS if profile.severs else None,
    )
    attach_campaign_contracts(app, deadline_us)
    rt = ShardedSmpSimRuntime(shards) if shards > 1 else SmpSimRuntime()
    rt.deploy(app)
    enable_tracing(rt)
    enable_telemetry(rt)  # after tracing: checkers emit trace events
    injector = FaultInjector(plan).install(rt)
    recovery = RecoveryManager().install(rt) if profile.recover else None
    supervisor = Supervisor(policy=profile.build(), seed=seed).install(rt)
    error = ""
    try:
        rt.start()
        rt.wait()
        reports = rt.collect()
    except Exception as exc:  # noqa: BLE001 - halt cells expect to fail
        if not profile.severs:
            rt.stop()
            raise
        error = repr(exc)
        reports = {}
    try:
        rt.stop()
    except Exception:  # noqa: BLE001 - teardown of a failed app may rethrow
        if not error:
            raise
    buffer = collect_trace(rt)

    delivered = dict(app.components["Reorder"].frames)
    lost = sorted(set(reference_hashes) - set(delivered))
    bit_exact = all(
        index in reference_hashes
        and hashlib.sha256(image.tobytes()).hexdigest() == reference_hashes[index]
        for index, image in delivered.items()
    )

    restarts = 0
    mttr_samples: List[int] = []
    if reports:
        for comp in app.functional_components():
            fault_report = reports[(comp.name, APPLICATION_LEVEL)]["faults"]
            restarts += fault_report["restarts"]
            if fault_report["restarts"]:
                mttr_samples.extend(
                    [fault_report["mttr_us"]] * fault_report["restarts"]
                )
    else:
        restarts = sum(1 for ev in supervisor.events if ev.action == RESTART)
    mttr_us = sum(mttr_samples) // len(mttr_samples) if mttr_samples else 0
    backoff_total_ns = sum(ev.backoff_ns for ev in supervisor.events)

    fault_events = [e for e in buffer.events() if e.category == "fault"]
    contract_events = [e for e in buffer.events() if e.category == "contract"]

    try:
        registry = collect_telemetry(rt)
    except Exception:  # noqa: BLE001 - a halted run may have no registry
        registry = None
    violations: Dict[str, int] = {}
    if registry is not None:
        for kind, name, labels, inst in registry.instruments():
            if kind == "counter" and name == "contract_violations_total" and inst.value:
                key = labels["kind"]
                violations[key] = violations.get(key, 0) + inst.value

    digest = hashlib.sha256()
    digest.update(json.dumps(plan.describe(), sort_keys=True).encode())
    digest.update(json.dumps(injector.log, sort_keys=True).encode())
    for ev in supervisor.events:
        digest.update(repr(ev).encode())
    for index in sorted(delivered):
        digest.update(index.to_bytes(4, "little"))
        digest.update(delivered[index].tobytes())

    return CampaignResult(
        seed=seed,
        n_images=n_images,
        plan=plan.describe(),
        schedule=list(injector.log),
        supervision=[ev.__dict__ for ev in supervisor.events],
        injected=injector.counts(),
        restarts=restarts,
        mttr_us=mttr_us,
        frames_expected=len(reference_hashes),
        frames_delivered=len(delivered),
        lost_frames=lost,
        bit_exact=bit_exact,
        digest=digest.hexdigest(),
        makespan_ns=rt.makespan_ns or 0,
        fault_trace_events=len(fault_events),
        recover=profile.recover,
        recovery=recovery.report() if recovery is not None else {},
        frames_digest=frames_digest(delivered),
        reference_frames_digest=reference_digest,
        metrics=registry,
        contract_violations=violations,
        contract_trace_events=len(contract_events),
        shards=shards,
        error=error,
        oracle=oracle,
        backoff_total_ns=backoff_total_ns,
    )
