"""The application assembly: the paper's control interface.

"The control operations include component creation, component
interconnection and component life-cycle management (launching and
termination)" (section 3.1).  An :class:`Application` is the deployment
unit: a named set of components plus their connections, handed to a
runtime for execution ("The deployment of any EMBera application is
carried out by explicitly invoking control functions into the main
application function", section 4.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.core.component import BehaviorFn, Component, ComponentState
from repro.core.errors import ConnectionError_, LifecycleError
from repro.core.interfaces import OBSERVATION_INTERFACE
from repro.core.observer import REPORTS_INTERFACE, ObserverComponent

ComponentRef = Union[str, Component]


class Application:
    """A set of interconnected components ready for deployment."""

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self.components: Dict[str, Component] = {}
        self.observer: Optional[ObserverComponent] = None
        self._sealed = False

    # -- creation ----------------------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a component under its (unique) name."""
        if self._sealed:
            raise LifecycleError(f"application {self.name!r} already deployed")
        if component.name in self.components:
            raise ConnectionError_(f"duplicate component name {component.name!r}")
        self.components[component.name] = component
        return component

    def create(
        self,
        name: str,
        behavior: Optional[BehaviorFn] = None,
        provides: Iterable[str] = (),
        requires: Iterable[str] = (),
        **placement,
    ) -> Component:
        """Convenience constructor: create, declare interfaces, add."""
        comp = Component(name, behavior=behavior)
        for p in provides:
            comp.add_provided(p)
        for r in requires:
            comp.add_required(r)
        if placement:
            comp.place(**placement)
        return self.add(comp)

    def _resolve(self, ref: ComponentRef) -> Component:
        if isinstance(ref, Component):
            if ref.name not in self.components or self.components[ref.name] is not ref:
                raise ConnectionError_(f"component {ref.name!r} not part of {self.name!r}")
            return ref
        try:
            return self.components[ref]
        except KeyError:
            raise ConnectionError_(
                f"no component {ref!r} in application {self.name!r}; "
                f"have: {sorted(self.components)}"
            ) from None

    # -- interconnection ------------------------------------------------------------

    def connect(
        self,
        src: ComponentRef,
        required_name: str,
        dst: ComponentRef,
        provided_name: str,
    ) -> None:
        """Bind ``src.required_name`` to ``dst.provided_name``."""
        source = self._resolve(src)
        target = self._resolve(dst)
        source.get_required(required_name).connect(target.get_provided(provided_name))

    # -- observation wiring ---------------------------------------------------------

    def attach_observer(
        self, targets: Optional[Iterable[ComponentRef]] = None
    ) -> ObserverComponent:
        """Create an observer and wire the observation interfaces of the
        target components (default: every functional component)."""
        if self.observer is not None:
            raise ConnectionError_(f"application {self.name!r} already has an observer")
        observer = ObserverComponent()
        self.add(observer)
        self.observer = observer
        if targets is None:
            picked = [c for c in self.components.values() if c is not observer]
        else:
            picked = [self._resolve(t) for t in targets]
        for comp in picked:
            req_name = observer.register_target(comp)
            observer.get_required(req_name).connect(comp.get_provided(OBSERVATION_INTERFACE))
            comp.get_required(OBSERVATION_INTERFACE).connect(
                observer.get_provided(REPORTS_INTERFACE)
            )
        return observer

    # -- validation --------------------------------------------------------------------

    def validate(self) -> None:
        """Check the assembly is deployable: every functional required
        interface must be connected (observation wiring is optional)."""
        if not self.components:
            raise ConnectionError_(f"application {self.name!r} has no components")
        for comp in self.components.values():
            for req in comp.functional_required():
                if not req.connected:
                    raise ConnectionError_(
                        f"required interface {req.qualified_name} is not connected"
                    )

    def seal(self) -> None:
        """Called by runtimes at deployment; freezes the structure."""
        self.validate()
        self._sealed = True
        for comp in self.components.values():
            comp.state = ComponentState.DEPLOYED

    def add_dynamic(self, component: Component) -> Component:
        """Register a component created *after* deployment.

        Called by ``Runtime.add_component`` during dynamic
        reconfiguration; bypasses the seal but keeps name uniqueness.
        """
        if component.name in self.components:
            raise ConnectionError_(f"duplicate component name {component.name!r}")
        self.components[component.name] = component
        component.state = ComponentState.DEPLOYED
        return component

    def functional_components(self) -> List[Component]:
        """Components excluding the observer."""
        return [
            c
            for c in self.components.values()
            if not isinstance(c, ObserverComponent)
        ]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Application {self.name!r} components={len(self.components)}>"
