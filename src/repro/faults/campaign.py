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

Every campaign of one ``(seed, n_images)`` in a process decodes one
stream: :func:`campaign_stream` builds it once and shares it with the
reference run, each chaos run, and every kill-9 incarnation or fleet
cell forked after it was built.  The shared stream is read-only: its
record tuple and coefficient arrays refuse writes, and the decode path
builds fresh arrays from them.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.contracts import InterfaceContract
from repro.core.observation import APPLICATION_LEVEL
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.faults.supervisor import (
    JITTER_FULL,
    RESTART,
    DegradePolicy,
    HaltPolicy,
    RestartPolicy,
)
from repro.metrics.telemetry import collect_telemetry
from repro.mjpeg.components import BATCHES_PER_IMAGE, build_smp_assembly, frames_digest
from repro.mjpeg.stream import generate_stream
from repro.runtime.build import RunConfig, build_run
from repro.sim.rng import RngRegistry
from repro.trace.tracer import collect_trace

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


#: Every supervision policy a chaos run can name.
POLICIES: Dict[str, PolicyProfile] = {
    "restart": PolicyProfile("restart", "progress", RestartPolicy),
    "restart-jitter": PolicyProfile(
        "restart-jitter", "progress", lambda: RestartPolicy(JITTER_FULL)
    ),
    "degrade": PolicyProfile("degrade", "survivors", DegradePolicy, severs=True),
    "halt": PolicyProfile("halt", "survivors", HaltPolicy, severs=True),
    "recover": PolicyProfile("recover", "exact", RestartPolicy, recover=True),
}


def attach_campaign_contracts(app) -> None:
    """Attach the campaign's QoS contracts to the decode pipeline.

    Every IDCT input gets a per-message delivery deadline of
    :data:`DEADLINE_US`; the Reorder input additionally requires
    per-sender ordering, which injected duplicates violate unless
    exactly-once recovery dedups them first -- so ordering violations
    count the duplicates that *reached* the application.
    """
    deadline_ns = DEADLINE_US * 1_000
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


#: The fleet grid's fault classes and intensities: a cell runs the
#: template ``"<class>.<intensity>"`` of :data:`PLAN_TEMPLATES`.
FAULT_CLASSES = ("crash", "drop", "duplicate", "stall", "mixed")
INTENSITIES = ("light", "heavy")


@dataclass(frozen=True)
class PlanTemplate:
    """One row of :data:`PLAN_TEMPLATES`: what a campaign injects.

    ``triggers`` distinct receive counts are drawn from the named RNG
    ``stream`` (empty when there are none); each crashes its IDCT
    worker, or stalls it for ``stall_ns`` when that is positive.
    ``drops`` and ``duplicates`` hold one rate per IDCT -> Reorder link,
    in :data:`_IDCTS` order.
    """

    stream: str
    triggers: int
    stall_ns: int
    drops: Tuple[float, float, float]
    duplicates: Tuple[float, float, float]


_NONE = (0.0, 0.0, 0.0)

#: Every plan a campaign can run: ``"campaign"`` for ``repro faults``
#: and the kill-9 worker, ``"<class>.<intensity>"`` for fleet cells.
#: Fleet crash and stall triggers come from ``fleet.*`` streams, so
#: they never perturb the ``campaign.schedule`` seeds; ``mixed`` is the
#: campaign plan at other rates.  That plan drops on one link only
#: (``IDCT_2``), so most frames survive, and duplicates on ``IDCT_1``,
#: which the Reorder stage must dedupe.
PLAN_TEMPLATES: Dict[str, PlanTemplate] = {
    "campaign": PlanTemplate("campaign.schedule", 3, 0, (0.0, 0.05, 0.0), (0.05, 0.0, 0.0)),
    "crash.light": PlanTemplate("fleet.crash", 1, 0, _NONE, _NONE),
    "crash.heavy": PlanTemplate("fleet.crash", 3, 0, _NONE, _NONE),
    "drop.light": PlanTemplate("", 0, 0, (0.0, 0.05, 0.0), _NONE),
    "drop.heavy": PlanTemplate("", 0, 0, (0.0, 0.15, 0.10), _NONE),
    "duplicate.light": PlanTemplate("", 0, 0, _NONE, (0.05, 0.0, 0.0)),
    "duplicate.heavy": PlanTemplate("", 0, 0, _NONE, (0.20, 0.0, 0.10)),
    "stall.light": PlanTemplate("fleet.stall", 1, 1_000_000, _NONE, _NONE),
    "stall.heavy": PlanTemplate("fleet.stall", 3, 2_500_000, _NONE, _NONE),
    "mixed.light": PlanTemplate("campaign.schedule", 1, 0, (0.0, 0.03, 0.0), (0.03, 0.0, 0.0)),
    "mixed.heavy": PlanTemplate("campaign.schedule", 3, 0, (0.0, 0.08, 0.0), (0.08, 0.0, 0.0)),
}


def build_plan(seed: int, n_images: int, template: str) -> FaultPlan:
    """The deterministic fault plan of ``template`` (a key of
    :data:`PLAN_TEMPLATES`) for one seed and stream length.

    Triggers hit the IDCT workers round-robin, each at a distinct
    receive count in ``[2, per_idct)``; the drops and duplicates on the
    worker -> Reorder links follow in IDCT order.
    """
    if template not in PLAN_TEMPLATES:
        raise FaultPlanError(
            f"unknown plan template {template!r}; expected one of {tuple(PLAN_TEMPLATES)}"
        )
    if n_images < 3:
        raise FaultPlanError(f"campaign needs at least 3 images, got {n_images}")
    row = PLAN_TEMPLATES[template]
    per_idct = (n_images - 1) * BATCHES_PER_IMAGE // len(_IDCTS)
    rng = RngRegistry(seed).stream(row.stream)
    triggers: List[Tuple[str, int]] = []
    while len(triggers) < row.triggers:
        trigger = (_IDCTS[len(triggers) % len(_IDCTS)], int(rng.integers(2, per_idct)))
        if trigger not in triggers:
            triggers.append(trigger)
    plan = FaultPlan(seed)
    for component, on_receive in triggers:
        if row.stall_ns:
            plan.stall(component, on_receive=on_receive, delay_ns=row.stall_ns)
        else:
            plan.crash(component, on_receive=on_receive)
    for component, rate in zip(_IDCTS, row.drops):
        if rate:
            plan.drop(component, "idctReorder", probability=rate)
    for component, rate in zip(_IDCTS, row.duplicates):
        if rate:
            plan.duplicate(component, "idctReorder", probability=rate)
    return plan.validate()


@functools.lru_cache(maxsize=8)
def campaign_stream(seed: int, n_images: int):
    """The synthetic MJPEG stream every campaign decodes: ``n_images``
    96x96 images at quality 75, generated from ``seed``.

    Built once per process and key, then shared: every later campaign of
    the same key, and every process forked after the build, decodes the
    same object.  It is read-only -- the records are a tuple and the
    stored coefficients refuse writes -- so no run can change the next
    one's input."""
    return generate_stream(n_images, 96, 96, quality=75, seed=seed)


def reference_oracle(stream) -> Tuple[Dict[int, str], str]:
    """The fault-free run distilled into the bit-exactness oracle:
    ``(per-frame sha256 hashes, frame-set digest)``.

    The decoded pixels are shard-count invariant, so one unsharded run
    is the oracle for every shard count.
    """
    app = build_smp_assembly(
        stream, use_stored_coefficients=True, keep_frames=True, with_observer=False
    )
    rt = build_run(RunConfig(), app)
    rt.run()
    rt.stop()
    frames = app.components["Reorder"].frames
    return frame_hashes(frames), frames_digest(frames)


def frame_hashes(frames: Dict[int, np.ndarray]) -> Dict[int, str]:
    """Per-frame sha256 of the raw pixel bytes -- the cacheable form of
    the bit-exactness oracle.  Fleet campaigns persist these once per
    seed instead of shipping reference pixels to every cell."""
    return {
        index: hashlib.sha256(image.tobytes()).hexdigest()
        for index, image in frames.items()
    }


def run_chaos_campaign(
    seed: int = 0,
    n_images: int = 10,
    recover: bool = False,
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
    despite crashes, drops and duplicates.  The run is assembled by
    :func:`~repro.runtime.build.build_run`, so a combination it cannot
    run (``shards < 1``) raises
    :class:`~repro.runtime.base.RuntimeError_` before anything runs.

    The chaos run carries the live telemetry plane: per-interface
    latency histograms, restart/MTTR series, and the QoS contracts of
    :func:`attach_campaign_contracts` checked message-by-message.
    Deadline violations surface recovery replays that arrive past
    :data:`DEADLINE_US`; ordering violations count injected duplicates that
    reached the application (zero under exactly-once recovery, which
    dedups them at admission).

    The remaining keywords are the fleet-cell hooks
    (:mod:`repro.faults.fleet` fans hundreds of these out across a worker
    pool): an explicit ``plan`` replaces the ``"campaign"`` template,
    ``shards`` places the chaos application on that many SMP shards,
    ``oracle`` relaxes or tightens :attr:`CampaignResult.ok`
    per policy expectation, and ``reference_hashes`` /
    ``reference_digest`` substitute a cached per-frame-sha256 reference
    for the in-process fault-free run.  A policy that severs upstreams
    (degrade/halt) records an application failure in the result instead
    of raising: those runs *expect* to fail.
    """
    if recover and policy not in ("restart", "recover"):
        raise ValueError(f"recover=True selects the recover policy, not {policy!r}")
    profile = POLICIES["recover" if recover else policy]
    if plan is None:
        plan = build_plan(seed, n_images, "campaign")
    plan.validate()
    config = RunConfig(
        shards=shards, trace=True, telemetry=True, faults=plan, policy=profile.name,
        seed=seed,
    )
    stream = campaign_stream(seed, n_images)
    if reference_hashes is None:
        reference_hashes, reference_digest = reference_oracle(stream)
    elif not reference_digest:
        raise ValueError("reference_hashes needs the matching reference_digest")

    app = build_smp_assembly(
        stream,
        use_stored_coefficients=True,
        keep_frames=True,
        with_observer=True,
        drop_incomplete=True,
        dynamic_upstream=profile.severs,
        quiescence_timeout_ns=QUIESCENCE_NS if profile.severs else None,
    )
    attach_campaign_contracts(app)
    rt = build_run(config, app)
    injector, recovery, supervisor = rt.injector, rt.recovery, rt.supervisor
    error = ""
    try:
        rt.run()
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
    trace = collect_trace(rt).columns()
    trace.validate()

    delivered = dict(app.components["Reorder"].frames)
    lost = sorted(set(reference_hashes) - set(delivered))
    bit_exact = all(
        reference_hashes.get(index) == frame for index, frame in frame_hashes(delivered).items()
    )

    restarts = repair_us = 0  # repair_us: MTTR weighted by restart count
    if reports:
        for comp in app.functional_components():
            fault_report = reports[(comp.name, APPLICATION_LEVEL)]["faults"]
            restarts += fault_report["restarts"]
            repair_us += fault_report["mttr_us"] * fault_report["restarts"]
    else:
        restarts = sum(1 for ev in supervisor.events if ev.action == RESTART)
    mttr_us = repair_us // restarts if repair_us else 0
    backoff_total_ns = sum(ev.backoff_ns for ev in supervisor.events)

    try:
        registry = collect_telemetry(rt)
    except Exception:  # noqa: BLE001 - a halted run may have no registry
        registry = None
    violations: Dict[str, int] = {}
    if registry is not None:
        for kind, name, labels, inst in registry.instruments():
            if kind == "counter" and name == "contract_violations_total" and inst.value:
                violations[labels["kind"]] = violations.get(labels["kind"], 0) + inst.value

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
        fault_trace_events=trace.category.count("fault"),
        recover=profile.recover,
        recovery=recovery.report() if recovery is not None else {},
        frames_digest=frames_digest(delivered),
        reference_frames_digest=reference_digest,
        metrics=registry,
        contract_violations=violations,
        contract_trace_events=trace.category.count("contract"),
        shards=shards,
        error=error,
        oracle=oracle,
        backoff_total_ns=backoff_total_ns,
    )
