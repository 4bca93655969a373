"""Runtime base class and shared orchestration logic."""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import count
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.application import Application
from repro.core.component import Component, ComponentState
from repro.core.observation import LEVELS, ObservationProbe


class RuntimeError_(Exception):
    """Deployment or execution error in a runtime.

    Trailing underscore avoids shadowing the builtin.
    """


class ComponentContainer:
    """Everything a runtime keeps per component."""

    __slots__ = ("component", "probe", "context", "service_context", "handle", "service_handle", "extra")

    def __init__(self, component: Component, probe: ObservationProbe) -> None:
        self.component = component
        self.probe = probe
        self.context = None
        self.service_context = None
        self.handle = None          # behaviour thread/task
        self.service_handle = None  # observation service thread/task
        self.extra: Dict[str, Any] = {}


class Runtime(ABC):
    """Lifecycle driver: deploy -> start -> wait -> collect -> stop."""

    def __init__(self) -> None:
        self.app: Optional[Application] = None
        self.containers: Dict[str, ComponentContainer] = {}
        #: Default observation policy for every probe; a component may
        #: override it via ``comp.place(observation_policy=...)``.
        self.observation_policy = None
        #: Deployment-wide span allocator: every context built by this
        #: runtime draws from it, so message span ids are unique across
        #: components (next() on a count is atomic under CPython -- no
        #: lock even on the thread runtime).
        self.span_source = count(1)
        # The optional planes, set between deploy and start by
        # repro.runtime.build.build_run or by each plane's own install.
        #: Trace plane: one :class:`TraceBuffer`.
        self.trace = None
        #: Live metrics plane: one :class:`MetricsRegistry`.
        self.metrics = None
        #: :class:`repro.faults.FaultInjector` of the run.
        self.injector = None
        #: :class:`repro.recovery.RecoveryManager`: dseq-stamped sends and
        #: replay of unacknowledged messages on supervised restart.
        self.recovery = None
        #: :class:`repro.faults.Supervisor`: covered components restart,
        #: degrade or halt instead of failing the whole application.
        self.supervisor = None

    # -- lifecycle ----------------------------------------------------------

    @abstractmethod
    def deploy(self, app: Application) -> None:
        """Bind interfaces to transports, allocate memory, build contexts."""

    @abstractmethod
    def start(self) -> None:
        """Launch every component's execution flow (and its observation
        service)."""

    @abstractmethod
    def wait(self) -> None:
        """Block/run until every functional component's behaviour returns."""

    @abstractmethod
    def collect(
        self, plan: Optional[Iterable[Tuple[str, str]]] = None
    ) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """Run the observer's query flow; returns reports keyed by
        ``(component, level)``.  Default plan: all levels of all attached
        components."""

    @abstractmethod
    def stop(self) -> None:
        """Terminate observation services and release the platform."""

    def run(self, app: Optional[Application] = None) -> None:
        """deploy (unless ``build_run`` already did) + start + wait."""
        if app is not None:
            self.deploy(app)
        self.start()
        self.wait()

    # -- dynamic reconfiguration ---------------------------------------------

    def add_component(
        self,
        component: Component,
        connections: Iterable[Tuple[Any, str, Any, str]] = (),
        observe: bool = False,
    ):
        """Create and launch a component while the application runs.

        The paper's control interface covers "component creation,
        component interconnection and component life-cycle management";
        this is those operations applied after deployment -- the Fractal
        reconfiguration heritage.  ``connections`` is a list of
        ``(src, required_name, dst, provided_name)`` to establish (source
        required interfaces are created on demand); ``observe=True`` also
        wires the component to the application's observer.

        Returns the new component's container.
        """
        if self.app is None:
            raise RuntimeError_("deploy() an application before reconfiguring it")
        self.app.add_dynamic(component)
        policy = component.placement.get("observation_policy", self.observation_policy)
        cont = ComponentContainer(component, ObservationProbe(component, policy=policy))
        self.containers[component.name] = cont
        self._deploy_dynamic(cont)
        for src, req_name, dst, prov_name in connections:
            self.connect_live(src, req_name, dst, prov_name)
        if observe:
            observer = self.app.observer
            if observer is None:
                raise RuntimeError_("observe=True but the application has no observer")
            from repro.core.interfaces import OBSERVATION_INTERFACE
            from repro.core.observer import REPORTS_INTERFACE

            req_name = observer.register_target(component, dynamic=True)
            observer.get_required(req_name).connect(
                component.get_provided(OBSERVATION_INTERFACE)
            )
            component.get_required(OBSERVATION_INTERFACE).connect(
                observer.get_provided(REPORTS_INTERFACE)
            )
        self._start_dynamic(cont)
        return cont

    def connect_live(self, src, required_name: str, dst, provided_name: str) -> None:
        """Establish a connection at run time; the source's required
        interface is created on demand (pointer semantics make live
        connection safe: messages sent after this call flow through)."""
        if self.app is None:
            raise RuntimeError_("no deployed application")
        source = self.app._resolve(src)
        target = self.app._resolve(dst)
        if required_name not in source.required:
            source.add_required(required_name, dynamic=True)
        source.get_required(required_name).connect(target.get_provided(provided_name))

    def rebind(self, src, required_name: str, dst, provided_name: str) -> None:
        """Re-point an existing required interface at a new provided
        interface.  Messages already delivered stay where they are."""
        if self.app is None:
            raise RuntimeError_("no deployed application")
        source = self.app._resolve(src)
        target = self.app._resolve(dst)
        req = source.get_required(required_name)
        req.disconnect()
        req.connect(target.get_provided(provided_name))

    def _deploy_dynamic(self, cont: ComponentContainer) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not support reconfiguration")

    def _start_dynamic(self, cont: ComponentContainer) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not support reconfiguration")

    # -- shared helpers ---------------------------------------------------------

    def _register(self, app: Application) -> None:
        if self.app is not None:
            raise RuntimeError_("runtime already has a deployed application")
        app.seal()
        self.app = app
        for comp in app.components.values():
            policy = comp.placement.get("observation_policy", self.observation_policy)
            self.containers[comp.name] = ComponentContainer(
                comp, ObservationProbe(comp, policy=policy)
            )

    def container(self, name: str) -> ComponentContainer:
        """The deployment container of a component (by name)."""
        try:
            return self.containers[name]
        except KeyError:
            raise RuntimeError_(f"no deployed component {name!r}") from None

    # -- telemetry ----------------------------------------------------------

    def _busy_ns_of(self, cont: ComponentContainer) -> Optional[int]:
        """Accumulated CPU busy time of a deployed component, or ``None``
        when this runtime cannot tell.  Each runtime declares its own
        source, mirroring ``_os_adapter``."""
        return None

    def stamp_telemetry(self) -> None:
        """Stamp the runtime-owned gauges (busy time, live queue depths)
        into the metrics plane.  Called by
        :func:`repro.metrics.telemetry.collect_telemetry`; a no-op until
        ``enable_telemetry`` has attached instruments.  Platforms with
        extra observable state extend it (EMBX object traffic on the
        STi7200)."""
        for cont in self.containers.values():
            tel = cont.probe.telemetry
            if tel is None:
                continue
            busy = self._busy_ns_of(cont)
            if busy is not None:
                tel.set_busy(busy)
            adapter = cont.probe.middleware_adapter
            if adapter is not None:
                for iface, depth in adapter().get("queue_depths", {}).items():
                    tel.set_queue_depth(iface, depth)

    def _default_plan(self) -> List[Tuple[str, str]]:
        if self.app is None or self.app.observer is None:
            raise RuntimeError_("no observer attached; call app.attach_observer() before deploy")
        return [(t, level) for t in self.app.observer.targets for level in LEVELS]

    def _requeue(self, provided, message) -> None:  # pragma: no cover - runtime-specific
        """Front-insert ``message`` into ``provided``'s binding -- the
        recovery manager's retransmission primitive.  Each runtime maps
        this onto its transport's head-insert."""
        raise NotImplementedError(f"{type(self).__name__} does not support message replay")

    def _behavior_body(self, cont: ComponentContainer):
        """The generator actually spawned for a component's execution
        flow: the raw behaviour, or the supervisor's fault-handling flow
        wrapped around it when supervision covers the component."""
        sup = self.supervisor
        if sup is not None and sup.policy is not None:
            return sup.flow(self, cont)
        return cont.component.behavior(cont.context)

    def _mark_running(self, comp: Component) -> None:
        comp.state = ComponentState.RUNNING

    def _mark_stopped(self, comp: Component, failed: bool = False) -> None:
        if comp.state == ComponentState.DEGRADED and not failed:
            return  # a degraded component stays observable as DEGRADED
        comp.state = ComponentState.FAILED if failed else ComponentState.STOPPED
