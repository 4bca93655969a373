"""Contract-aware interfaces: declarative QoS contracts checked by the
observation layer.

Beugnard et al. (*Contract Aware Components, 10 years after*) classify
component contracts in four levels; the interesting two for an MPSoC
observer are level 3 (synchronization: ordering) and level 4 (QoS:
rates and deadlines).  This module makes the paper's *passive* observer
the enforcement point the ROADMAP asks for: an
:class:`InterfaceContract` attaches to a provided or required interface
(:meth:`repro.core.component.Component.set_contract`), and a
:class:`ContractChecker` validates the component's live telemetry
stream (:mod:`repro.metrics.telemetry`) against it -- no application
code changes, exactly like every other observation concern.

Violations surface three ways at once:

- a ``contract_violations_total{component,iface,kind}`` counter in the
  metrics registry (exporters, ``repro top``, the observer report);
- a ``contract``/``violation`` INSTANT event in the causal trace (when
  tracing is enabled, before or after telemetry), carrying the offending
  span id so the violation joins the causal chain;
- the checker's :meth:`~ContractChecker.summary`, which the observer
  folds into the application-level report.

Checks:

``deadline_ns``
    Per-message delivery deadline: receive-side delivery latency
    (``now - sent_at``) must not exceed it.  Checked per message.
``ordered``
    Per-sender sequence monotonicity on the receive side; duplicates
    and reorderings both trip it.  Checked per message.
``min_rate_hz`` / ``max_rate_hz``
    Message rate per telemetry window, judged when the registry cuts its
    window series (:meth:`repro.metrics.telemetry.MetricsRegistry.finish`)
    on every window from the interface's first message to the end of
    run, silent ones included.  ``max`` is checked on each of them;
    ``min`` only on *interior* windows (excluding the first and the
    final partial window), so warm-up and drain don't false-positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.trace.events import INSTANT

#: Violation kinds (the ``kind`` label on the violation counter).
DEADLINE = "deadline"
ORDERING = "ordering"
RATE = "rate"


@dataclass(frozen=True)
class InterfaceContract:
    """A declarative QoS contract for one interface.

    All fields are optional; ``None`` / ``False`` means "not checked".
    Rates are in messages per second of sim time; the deadline is in
    nanoseconds of delivery latency.
    """

    deadline_ns: Optional[int] = None
    min_rate_hz: Optional[float] = None
    max_rate_hz: Optional[float] = None
    ordered: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise ValueError(f"deadline_ns must be positive, got {self.deadline_ns}")
        for field_name in ("min_rate_hz", "max_rate_hz"):
            rate = getattr(self, field_name)
            if rate is not None and rate <= 0:
                raise ValueError(f"{field_name} must be positive, got {rate}")
        if (
            self.min_rate_hz is not None
            and self.max_rate_hz is not None
            and self.min_rate_hz > self.max_rate_hz
        ):
            raise ValueError(
                f"min_rate_hz {self.min_rate_hz} exceeds max_rate_hz {self.max_rate_hz}"
            )

    @property
    def checks_anything(self) -> bool:
        """True when at least one clause is active."""
        return (
            self.deadline_ns is not None
            or self.min_rate_hz is not None
            or self.max_rate_hz is not None
            or self.ordered
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (for reports and command help)."""
        out: Dict[str, Any] = {}
        if self.name:
            out["name"] = self.name
        if self.deadline_ns is not None:
            out["deadline_ns"] = self.deadline_ns
        if self.min_rate_hz is not None:
            out["min_rate_hz"] = self.min_rate_hz
        if self.max_rate_hz is not None:
            out["max_rate_hz"] = self.max_rate_hz
        if self.ordered:
            out["ordered"] = True
        return out


class ContractChecker:
    """Validates one component's telemetry stream against its interface
    contracts.  Driven by the :class:`repro.core.observation.ObservationProbe`
    (per-message hooks, at append time) and the registry's window cut
    (rates).  ``extra`` is the container's extras: its ``"tracer"`` is
    looked up per violation, so the order the planes are enabled in
    does not matter."""

    __slots__ = (
        "component", "receive_contracts", "send_contracts",
        "_registry", "_extra", "_counters", "violations",
        "_last_seq", "_window_counts", "first_window",
    )

    def __init__(
        self,
        component: str,
        receive_contracts: Dict[str, InterfaceContract],
        send_contracts: Dict[str, InterfaceContract],
        registry,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.component = component
        self.receive_contracts = receive_contracts
        self.send_contracts = send_contracts
        self._registry = registry
        self._extra = extra if extra is not None else {}
        self._counters: Dict[Tuple[str, str], Any] = {}
        #: (iface, kind) -> count, the observer-report view.
        self.violations: Dict[Tuple[str, str], int] = {}
        #: (iface, src) -> last seen sender seq (ordering clause).
        self._last_seq: Dict[Tuple[str, str], int] = {}
        #: (iface, window index) -> messages not yet judged (rate clauses).
        self._window_counts: Dict[Tuple[str, int], int] = {}
        #: iface -> window index of the interface's first message.
        self.first_window: Dict[str, int] = {}

    # -- per-message clauses ---------------------------------------------------

    def on_send(self, iface: str, message, ts_ns: int) -> None:
        """Send-side hook: rate accounting for required-interface contracts."""
        contract = self.send_contracts.get(iface)
        if contract is None:
            return
        self._count_for_rate(iface, contract, ts_ns)

    def on_receive(self, iface: str, message, latency_ns: int, ts_ns: int) -> None:
        """Receive-side hook: deadline and ordering clauses, rate accounting."""
        contract = self.receive_contracts.get(iface)
        if contract is None:
            return
        deadline = contract.deadline_ns
        if deadline is not None and latency_ns > deadline:
            self._violate(
                iface, DEADLINE, ts_ns,
                latency_ns=latency_ns, deadline_ns=deadline,
                src=message.src, span=message.span,
            )
        if contract.ordered:
            key = (iface, message.src)
            last = self._last_seq.get(key)
            if last is not None and message.seq <= last:
                self._violate(
                    iface, ORDERING, ts_ns,
                    seq=message.seq, last_seq=last,
                    src=message.src, span=message.span,
                )
            else:
                self._last_seq[key] = message.seq
        self._count_for_rate(iface, contract, ts_ns)

    def _count_for_rate(self, iface: str, contract: InterfaceContract, ts_ns: int) -> None:
        if contract.min_rate_hz is None and contract.max_rate_hz is None:
            return
        window = ts_ns // self._registry.window_ns
        self.first_window.setdefault(iface, window)
        key = (iface, window)
        self._window_counts[key] = self._window_counts.get(key, 0) + 1

    # -- per-window clauses ----------------------------------------------------

    def on_window(self, index: int, start_ns: int, end_ns: int, final: bool) -> None:
        """Evaluate rate clauses over one window.  The registry's cut
        calls it for every window before building the series, so rate
        violations land in the window they judge."""
        window_s = (end_ns - start_ns) / 1e9
        for iface, contract in self._rate_contracts():
            n = self._window_counts.pop((iface, index), 0)
            first = self.first_window.get(iface)
            if first is None:
                continue  # no traffic yet: nothing to judge
            max_rate = contract.max_rate_hz
            if max_rate is not None and n > max_rate * window_s:
                self._violate(
                    iface, RATE, start_ns, messages=n, window_index=index,
                    limit_hz=max_rate, bound="max",
                )
            min_rate = contract.min_rate_hz
            # Interior windows only: the first window starts mid-stream
            # and the final one ends mid-stream.
            if (
                min_rate is not None
                and not final
                and index > first
                and n < min_rate * window_s
            ):
                self._violate(
                    iface, RATE, start_ns, messages=n, window_index=index,
                    limit_hz=min_rate, bound="min",
                )

    def _rate_contracts(self):
        for iface, contract in self.receive_contracts.items():
            if contract.min_rate_hz is not None or contract.max_rate_hz is not None:
                yield iface, contract
        for iface, contract in self.send_contracts.items():
            if contract.min_rate_hz is not None or contract.max_rate_hz is not None:
                yield iface, contract

    # -- violation sink --------------------------------------------------------

    def _violate(self, iface: str, kind: str, ts_ns: int, **details: Any) -> None:
        key = (iface, kind)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self._registry.counter(
                "contract_violations_total",
                component=self.component, iface=iface, kind=kind,
            )
        counter.inc(1, ts_ns)
        self.violations[key] = self.violations.get(key, 0) + 1
        tracer = self._extra.get("tracer")
        if tracer is not None:
            tracer.emit("contract", "violation", INSTANT,
                        iface=iface, kind=kind, **details)

    def summary(self) -> Dict[str, Any]:
        """Violation counts for the observer's application report."""
        by_iface: Dict[str, Dict[str, int]] = {}
        for (iface, kind), n in sorted(self.violations.items()):
            by_iface.setdefault(iface, {})[kind] = n
        contracts = {
            iface: c.to_dict() for iface, c in sorted(self.receive_contracts.items())
        }
        for iface, c in sorted(self.send_contracts.items()):
            contracts.setdefault(iface, c.to_dict())
        return {
            "contracts": contracts,
            "violations": sum(self.violations.values()),
            "violations_by_interface": by_iface,
        }
