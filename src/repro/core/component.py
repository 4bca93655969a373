"""The EMBera component: an active entity with a well-defined functionality.

Paper section 3.1: "The components in EMBera are active entities and each
component has its own execution flow" -- the behaviour generator, executed
by a runtime as a pthread (Linux), an OS21 task (STi7200) or a real Python
thread (native runtime).

The predefined *control interface* of the paper maps to the methods of
this class and of :class:`~repro.core.application.Application`:
creation (constructor / ``Application.create``), interconnection
(``Application.connect``), life-cycle (``Application.start/stop/join``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.core.errors import ConnectionError_, LifecycleError
from repro.core.interfaces import (
    OBSERVATION_INTERFACE,
    ProvidedInterface,
    RequiredInterface,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import ComponentContext


class ComponentState:
    """Component life-cycle states (paper section 3.1).

    ``DEGRADED`` is the supervision extension: the component is lost but
    the application keeps running with its traffic rerouted or dropped
    (see :mod:`repro.faults.supervisor`).
    """
    CREATED = "CREATED"
    DEPLOYED = "DEPLOYED"
    RUNNING = "RUNNING"
    STOPPED = "STOPPED"
    FAILED = "FAILED"
    DEGRADED = "DEGRADED"


BehaviorFn = Callable[["ComponentContext"], Generator]


class Component:
    """A software entity with provided/required interfaces and a behaviour.

    Use either style::

        # function style
        comp = Component("idct", behavior=my_generator_fn)

        # subclass style
        class Idct(Component):
            def behavior(self, ctx):
                msg = yield from ctx.receive("input")
                ...

    The two ``introspection`` observation interfaces are created by
    default on every component (paper section 4.2).
    """

    def __init__(self, name: str, behavior: Optional[BehaviorFn] = None) -> None:
        if not name or "." in name:
            raise ValueError(f"invalid component name {name!r}")
        self.name = name
        self.state = ComponentState.CREATED
        self._behavior_fn = behavior
        self.provided: Dict[str, ProvidedInterface] = {}
        self.required: Dict[str, RequiredInterface] = {}
        # Observation interface pair, created by default.
        self.add_provided(OBSERVATION_INTERFACE, is_observation=True)
        self.add_required(OBSERVATION_INTERFACE, is_observation=True)
        #: Deployment hints consumed by runtimes (cpu pinning, node, stack...)
        self.placement: Dict[str, Any] = {}

    # -- structure (control interface: creation & introspection) ------------

    def add_provided(self, name: str, is_observation: bool = False) -> ProvidedInterface:
        """Declare a provided interface (before deployment only)."""
        if self.state != ComponentState.CREATED:
            raise LifecycleError(f"cannot add interfaces to {self.name!r} in state {self.state}")
        if name in self.provided:
            raise ConnectionError_(f"{self.name!r} already provides {name!r}")
        iface = ProvidedInterface(self, name, is_observation=is_observation)
        self.provided[name] = iface
        return iface

    def add_required(
        self, name: str, is_observation: bool = False, dynamic: bool = False
    ) -> RequiredInterface:
        """Declare a required interface.

        After deployment this is only legal as part of a runtime-driven
        dynamic reconfiguration (``dynamic=True``), which takes care of
        binding the new interface to a transport.
        """
        if self.state != ComponentState.CREATED and not dynamic:
            raise LifecycleError(f"cannot add interfaces to {self.name!r} in state {self.state}")
        if name in self.required:
            raise ConnectionError_(f"{self.name!r} already requires {name!r}")
        iface = RequiredInterface(self, name, is_observation=is_observation)
        self.required[name] = iface
        return iface

    def get_provided(self, name: str) -> ProvidedInterface:
        """Look up a provided interface (error lists options)."""
        try:
            return self.provided[name]
        except KeyError:
            raise ConnectionError_(
                f"{self.name!r} has no provided interface {name!r}; "
                f"available: {sorted(self.provided)}"
            ) from None

    def get_required(self, name: str) -> RequiredInterface:
        """Look up a required interface (error lists options)."""
        try:
            return self.required[name]
        except KeyError:
            raise ConnectionError_(
                f"{self.name!r} has no required interface {name!r}; "
                f"available: {sorted(self.required)}"
            ) from None

    def set_contract(self, iface_name: str, contract: Any) -> "Component":
        """Attach an :class:`~repro.core.contracts.InterfaceContract` to a
        provided or required interface (provided wins on a name clash).
        The observation layer checks it at runtime when telemetry is
        enabled.  Returns self for chaining."""
        iface = self.provided.get(iface_name) or self.required.get(iface_name)
        if iface is None:
            raise ConnectionError_(
                f"{self.name!r} has no interface {iface_name!r}; "
                f"available: {sorted(self.provided) + sorted(self.required)}"
            )
        if iface.is_observation:
            raise ConnectionError_(
                f"cannot attach a contract to observation interface "
                f"{iface.qualified_name}"
            )
        iface.contract = contract
        return self

    def interfaces(self) -> List[tuple]:
        """All interfaces as ``(name, type)`` pairs: provided first, then
        required, each in creation order -- the Figure 5 listing order."""
        out = [(p.name, "provided") for p in self.provided.values()]
        out += [(r.name, "required") for r in self.required.values()]
        return out

    def functional_provided(self) -> List[ProvidedInterface]:
        """Provided interfaces excluding the observation pair."""
        return [p for p in self.provided.values() if not p.is_observation]

    def functional_required(self) -> List[RequiredInterface]:
        """Required interfaces excluding the observation pair."""
        return [r for r in self.required.values() if not r.is_observation]

    def interface_bytes(self) -> int:
        """Memory footprint of this component's provided interfaces -- the
        Table 1 increment over the bare thread stack."""
        return sum(p.mailbox_bytes for p in self.provided.values())

    # -- recovery contract (control interface, see docs/robustness.md) -------

    def snapshot(self) -> Optional[Dict[str, Any]]:
        """Return a dict of the component's resumable state, or ``None``
        when no consistent snapshot is possible right now
        (mid-transaction) or the component does not support
        checkpointing at all.

        The returned state must be one the component will not mutate
        afterwards: the recovery manager commits it as it is, without a
        copy.  Return fresh containers (immutable values, such as ints
        or arrays nothing writes to, may be shared).  The state must
        also be deepcopy-able, since every restore hands the component a
        deep copy of it, and picklable for a durable store.

        The contract: ``restore(snapshot())`` followed by a fresh
        ``behavior()`` generator must reproduce the same outputs, in the
        same order, as the uninterrupted run -- given the same inputs are
        re-delivered.  Components that never return a state fall back to
        full input replay from epoch 0 (see :mod:`repro.recovery`).
        """
        return None

    def restore(self, state: Dict[str, Any]) -> None:
        """Reinstall a state previously returned by :meth:`snapshot`.
        Called by the recovery manager before the supervisor restarts the
        behaviour.  The default is a no-op (stateless component)."""

    # -- behaviour ------------------------------------------------------------

    def behavior(self, ctx: "ComponentContext") -> Generator:
        """Override in subclasses, or pass ``behavior=`` to the constructor."""
        if self._behavior_fn is None:
            raise LifecycleError(f"component {self.name!r} has no behaviour")
        return self._behavior_fn(ctx)

    # -- placement hints ----------------------------------------------------------

    def place(self, **hints: Any) -> "Component":
        """Attach deployment hints (``cpu=``, ``node=``, ``priority=``...).

        Returns self for chaining.
        """
        self.placement.update(hints)
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Component {self.name!r} {self.state}>"
