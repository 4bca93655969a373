"""The observer component.

Paper section 3.3: "The information obtained, accessible through the
observation interface, is gathered and analyzed by a new component
connected to the observation interfaces.  We have named it the observer
component."

Wiring (done by :meth:`repro.core.application.Application.attach_observer`):

- for each observed component ``C``, the observer gains a required
  observation interface ``obs_<C>`` connected to ``C``'s provided
  ``introspection`` interface (queries travel this way);
- ``C``'s required ``introspection`` interface is connected to the
  observer's provided ``reports`` interface (replies travel back).

Queries and replies are ordinary EMBera messages of kind ``observation``,
so observation uses exactly the communication machinery it observes --
but is excluded from the application-level counters.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Tuple

from repro.core.component import Component
from repro.core.errors import ObservationError
from repro.core.messages import OBSERVATION
from repro.core.observation import LEVELS, ObservationReply, ObservationRequest

#: Name of the observer's provided interface where replies arrive.
REPORTS_INTERFACE = "reports"


class ObserverComponent(Component):
    """Gathers observation reports from the components it is attached to."""

    def __init__(self) -> None:
        super().__init__("observer")
        self.add_provided(REPORTS_INTERFACE, is_observation=True)
        self.targets: List[str] = []
        #: Accumulated reports keyed by ``(component, level)``.
        self.reports: Dict[Tuple[str, str], Dict[str, Any]] = {}

    # -- wiring (called by Application.attach_observer) ----------------------

    def required_name_for(self, target: str) -> str:
        """Observer-side interface name for a target."""
        return f"obs_{target}"

    def register_target(self, component: Component, dynamic: bool = False) -> str:
        """Declare intent to observe ``component``; returns the required
        interface name the application must connect.  ``dynamic=True``
        permits registration after the observer is deployed (runtime
        reconfiguration)."""
        if component.name in self.targets:
            raise ObservationError(f"{component.name!r} already observed")
        name = self.required_name_for(component.name)
        self.add_required(name, is_observation=True, dynamic=dynamic)
        self.targets.append(component.name)
        return name

    # -- query flows -----------------------------------------------------------

    def collect(
        self, ctx, plan: Iterable[Tuple[str, str]]
    ) -> Generator:
        """Query several ``(component, level)`` pairs; returns a dict.

        Runs as an execution flow of the observer: all requests are sent
        asynchronously first, then replies are matched by tag, so slow
        components do not serialise the collection.
        """
        plan = list(plan)
        pending: Dict[str, Tuple[str, str]] = {}
        for i, (target, level) in enumerate(plan):
            if level not in LEVELS:
                raise ObservationError(f"unknown observation level {level!r}")
            if target not in self.targets:
                raise ObservationError(
                    f"observer {self.name!r} is not attached to {target!r}; "
                    f"attached: {self.targets}"
                )
            tag = f"q{i}"
            request = ObservationRequest(level=level, reply_tag=tag)
            yield from ctx.send(
                self.required_name_for(target), request, kind=OBSERVATION
            )
            pending[tag] = (target, level)
        results: Dict[Tuple[str, str], Dict[str, Any]] = {}
        while pending:
            msg = yield from ctx.receive(REPORTS_INTERFACE)
            reply = msg.payload
            if not isinstance(reply, ObservationReply) or reply.reply_tag not in pending:
                continue
            key = pending.pop(reply.reply_tag)
            results[key] = reply.data
            self.reports[key] = reply.data
        return results

    def contract_violations(self) -> Dict[str, Any]:
        """Aggregate contract-violation counts across every collected
        application report (telemetry must be enabled for any to exist).

        Returns ``{"total": n, "by_component": {component: {iface:
        {kind: count}}}}`` -- the ``repro observe`` summary shape.
        """
        total = 0
        by_component: Dict[str, Any] = {}
        for (component, level), data in sorted(self.reports.items()):
            if level != "application":
                continue
            contracts = data.get("contracts")
            if not contracts:
                continue
            total += contracts.get("violations", 0)
            by_iface = contracts.get("violations_by_interface", {})
            if by_iface or contracts.get("contracts"):
                by_component[component] = {
                    "contracts": contracts.get("contracts", {}),
                    "violations": contracts.get("violations", 0),
                    "by_interface": by_iface,
                }
        return {"total": total, "by_component": by_component}
