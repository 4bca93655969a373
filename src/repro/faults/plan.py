"""Deterministic fault plans.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries
plus a seed.  Nothing here is random by itself: the plan carries the
*parameters* of the campaign (which component, which connection, which
probability, which instant) and the seed from which the injector derives
its named random streams -- so the same plan replayed against the same
application produces a bit-identical fault schedule.

Fault taxonomy (``kind``):

``crash``
    Raise :class:`~repro.core.errors.InjectedFault` inside the target
    component's execution flow -- either at a virtual-time instant
    (``at_ns``, armed by a kernel callback on simulated runtimes) or at
    its ``on_receive``-th data receive (both runtimes).
``drop``
    A data message sent by ``component`` through required interface
    ``interface`` is silently lost in transport with ``probability``.
``duplicate``
    The message is delivered twice with ``probability``.
``delay``
    Delivery is preceded by an extra ``delay_ns`` of latency with
    ``probability`` (transient link congestion).
``corrupt``
    The payload is deterministically perturbed in transit with
    ``probability`` (bit-flip model for arrays/bytes).
``stall``
    The component freezes for ``delay_ns`` before its ``on_receive``-th
    data receive (transient compute stall; no state is lost).
``overflow``
    The receiving mailbox behaves as if bounded to ``capacity``
    entries: sends that find it full are refused and the message is
    lost (counted as an overflow fault).

Killing the OS process that hosts the components is not a plan kind: the
kill-9 campaign (:mod:`repro.recovery.supervised`) draws its own SIGKILL
thresholds and executes them from the parent process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

CRASH = "crash"
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
CORRUPT = "corrupt"
STALL = "stall"
OVERFLOW = "overflow"

KINDS = (CRASH, DROP, DUPLICATE, DELAY, CORRUPT, STALL, OVERFLOW)

#: Kinds interposed on the sender's transfer path.
TRANSFER_KINDS = (DROP, DUPLICATE, DELAY, CORRUPT, OVERFLOW)


class FaultPlanError(ValueError):
    """An ill-formed fault specification."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.  Field relevance depends on ``kind``."""

    kind: str
    component: str
    interface: str = ""
    at_ns: Optional[int] = None
    on_receive: Optional[int] = None
    probability: float = 1.0
    delay_ns: int = 0
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS} "
                f"(see repro.faults.plan for the taxonomy)"
            )
        if not self.component:
            raise FaultPlanError(f"{self.kind} fault needs a target component")
        if not 0.0 <= self.probability <= 1.0:  # also rejects NaN
            raise FaultPlanError(
                f"{self.kind} fault on {self.component!r}: probability (rate) must "
                f"be in [0, 1], got {self.probability}"
            )
        if self.delay_ns < 0:
            raise FaultPlanError(
                f"{self.kind} fault on {self.component!r}: negative delay_ns "
                f"(intensity) {self.delay_ns}; delays are forward virtual time"
            )
        if self.capacity < 0:
            raise FaultPlanError(
                f"{self.kind} fault on {self.component!r}: negative capacity "
                f"{self.capacity}"
            )
        if self.kind == CRASH:
            if (self.at_ns is None) == (self.on_receive is None):
                raise FaultPlanError("crash needs exactly one of at_ns= or on_receive=")
            if self.at_ns is not None and self.at_ns < 0:
                raise FaultPlanError(f"negative crash instant: {self.at_ns}")
            if self.on_receive is not None and self.on_receive < 1:
                raise FaultPlanError(f"on_receive counts from 1, got {self.on_receive}")
        if self.kind in TRANSFER_KINDS and not self.interface:
            raise FaultPlanError(f"{self.kind} fault needs the sender's required interface")
        if self.kind in (DELAY, STALL) and self.delay_ns <= 0:
            raise FaultPlanError(f"{self.kind} fault needs a positive delay_ns")
        if self.kind == STALL and (self.on_receive is None or self.on_receive < 1):
            raise FaultPlanError("stall needs on_receive >= 1")
        if self.kind == OVERFLOW and self.capacity < 1:
            raise FaultPlanError(f"overflow needs capacity >= 1, got {self.capacity}")

    def describe(self) -> Dict[str, Any]:
        """A JSON-friendly summary of this spec (campaign manifests)."""
        out: Dict[str, Any] = {"kind": self.kind, "component": self.component}
        if self.interface:
            out["interface"] = self.interface
        if self.at_ns is not None:
            out["at_ns"] = self.at_ns
        if self.on_receive is not None:
            out["on_receive"] = self.on_receive
        if self.kind in TRANSFER_KINDS:
            out["probability"] = self.probability
        if self.delay_ns:
            out["delay_ns"] = self.delay_ns
        if self.capacity:
            out["capacity"] = self.capacity
        return out


@dataclass
class FaultPlan:
    """A seeded collection of fault specs, built fluently::

        plan = (FaultPlan(seed=7)
                .crash("IDCT_2", on_receive=12)
                .drop("IDCT_2", "idctReorder", probability=0.05)
                .stall("Fetch", on_receive=30, delay_ns=2_000_000))
    """

    seed: int = 0
    specs: List[FaultSpec] = field(default_factory=list, init=False)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Append a prebuilt spec (fluent)."""
        self.specs.append(spec)
        return self

    def crash(
        self, component: str, at_ns: Optional[int] = None, on_receive: Optional[int] = None
    ) -> "FaultPlan":
        """Crash ``component`` at a virtual instant or at its nth receive."""
        return self.add(FaultSpec(CRASH, component, at_ns=at_ns, on_receive=on_receive))

    def drop(self, component: str, interface: str, probability: float) -> "FaultPlan":
        """Lose messages sent by ``component`` via ``interface``."""
        return self.add(FaultSpec(DROP, component, interface, probability=probability))

    def duplicate(self, component: str, interface: str, probability: float) -> "FaultPlan":
        """Deliver messages on this connection twice."""
        return self.add(FaultSpec(DUPLICATE, component, interface, probability=probability))

    def delay(
        self, component: str, interface: str, probability: float, delay_ns: int
    ) -> "FaultPlan":
        """Add transit latency on this connection."""
        return self.add(
            FaultSpec(DELAY, component, interface, probability=probability, delay_ns=delay_ns)
        )

    def corrupt(self, component: str, interface: str, probability: float) -> "FaultPlan":
        """Perturb payloads in transit on this connection."""
        return self.add(FaultSpec(CORRUPT, component, interface, probability=probability))

    def stall(self, component: str, on_receive: int, delay_ns: int) -> "FaultPlan":
        """Freeze ``component`` before its nth data receive."""
        return self.add(FaultSpec(STALL, component, on_receive=on_receive, delay_ns=delay_ns))

    def overflow(self, component: str, interface: str, capacity: int) -> "FaultPlan":
        """Bound the mailbox behind this connection; overflowing sends are lost."""
        return self.add(FaultSpec(OVERFLOW, component, interface, capacity=capacity))

    def validate(self) -> "FaultPlan":
        """Cross-spec validation, run eagerly (fleet campaigns call this at
        grid-build time so an ill-formed plan fails before any cell runs).

        Per-spec field errors are already raised at construction by
        :class:`FaultSpec`; this catches the conflicts only visible across
        specs:

        * **overlapping stall windows** -- two stalls on the same component
          triggering at the same receive index would stack into one opaque
          freeze; split them across distinct receives instead;
        * **duplicate crash triggers** -- two crashes on the same component
          at the same instant / receive: the second can never fire.
        """
        stalls: set = set()
        crashes: set = set()
        for spec in self.specs:
            if spec.kind == STALL:
                key = (spec.component, spec.on_receive)
                if key in stalls:
                    raise FaultPlanError(
                        f"overlapping stall windows on {spec.component!r}: two "
                        f"stalls trigger at receive #{spec.on_receive}; merge "
                        f"them into one longer delay_ns or move one to a "
                        f"different on_receive"
                    )
                stalls.add(key)
            elif spec.kind == CRASH:
                key = (spec.component, spec.at_ns, spec.on_receive)
                if key in crashes:
                    trigger = (
                        f"at_ns={spec.at_ns}" if spec.at_ns is not None
                        else f"on_receive={spec.on_receive}"
                    )
                    raise FaultPlanError(
                        f"duplicate crash trigger on {spec.component!r} "
                        f"({trigger}): the component is already down when the "
                        f"second crash would fire"
                    )
                crashes.add(key)
        return self

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-friendly plan manifest (stable order)."""
        return [spec.describe() for spec in self.specs]

    def __len__(self) -> int:
        return len(self.specs)

