"""Provided and required interfaces, and their connections.

Paper section 4.1: "A provided interface receives messages while a
required interface sends those messages.  It is also implemented as a
FIFO data structure, we have named mailbox.  A required interface
corresponds to a pointer towards a provided interface.  A connection is
established by setting the pointer on the required interface to a
specific provided interface."

Interface objects here are runtime-agnostic descriptors.  The runtime
attaches a *binding* (the actual mailbox / EMBX distributed object) to
each provided interface at deployment; the binding is the only part that
differs between platforms.

Observation interfaces (``introspection``) are created by default on
every component.  Their mailbox is a lightweight control channel owned by
the runtime, which is why the paper's Fetch component shows no interface
memory despite carrying them (Table 1 discussion).
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.core.errors import ConnectionError_

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.component import Component

#: Name of the default observation interface pair (matches Figure 5).
OBSERVATION_INTERFACE = "introspection"

#: Memory footprint charged for one functional provided interface on the
#: Linux implementation: a 2 MB mailbox buffer plus 410 kB of message-slot
#: structures = 2 458 kB, the increment observed in Table 1.
DEFAULT_MAILBOX_BYTES = 2458 * 1024


class ProvidedInterface:
    """A message sink: functionality this component offers."""

    __slots__ = (
        "component", "name", "is_observation", "binding", "mailbox_bytes",
        "connected_from", "contract",
    )

    def __init__(
        self,
        component: "Component",
        name: str,
        is_observation: bool = False,
    ) -> None:
        self.component = component
        self.name = name
        self.is_observation = is_observation
        #: Runtime-attached transport (mailbox, EMBX object...).
        self.binding: Any = None
        #: Bytes charged to the component for this interface's mailbox.
        #: Observation interfaces are runtime-owned and charge nothing.
        self.mailbox_bytes = 0 if is_observation else DEFAULT_MAILBOX_BYTES
        #: Required interfaces currently pointing here (the Fractal-style
        #: binding listing; grows/shrinks under dynamic reconfiguration).
        self.connected_from: list = []
        #: Optional :class:`~repro.core.contracts.InterfaceContract`
        #: checked by the observation layer (deadline/ordering/rate).
        self.contract: Any = None

    @property
    def qualified_name(self) -> str:
        """``component.interface`` display name."""
        return f"{self.component.name}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Provided {self.qualified_name}>"


class RequiredInterface:
    """A message source: functionality this component depends on.

    ``target`` is the paper's "pointer towards a provided interface".
    """

    __slots__ = ("component", "name", "is_observation", "target", "contract")

    def __init__(self, component: "Component", name: str, is_observation: bool = False) -> None:
        self.component = component
        self.name = name
        self.is_observation = is_observation
        self.target: Optional[ProvidedInterface] = None
        #: Optional :class:`~repro.core.contracts.InterfaceContract`
        #: checked by the observation layer (send-side rate clauses).
        self.contract: Any = None

    @property
    def connected(self) -> bool:
        """True when the pointer is set."""
        return self.target is not None

    @property
    def qualified_name(self) -> str:
        """``component.interface`` display name."""
        return f"{self.component.name}.{self.name}"

    def connect(self, provided: ProvidedInterface) -> None:
        """Set the pointer.  Reconnecting is an error; several required
        interfaces may share one provided interface (multi-sender mailbox)."""
        if self.target is not None:
            raise ConnectionError_(
                f"{self.qualified_name} already connected to {self.target.qualified_name}"
            )
        if provided.component is self.component:
            raise ConnectionError_(
                f"cannot connect {self.qualified_name} to the same component"
            )
        if self.is_observation != provided.is_observation:
            raise ConnectionError_(
                f"cannot mix observation and functional interfaces: "
                f"{self.qualified_name} -> {provided.qualified_name}"
            )
        self.target = provided
        provided.connected_from.append(self)

    def disconnect(self) -> None:
        """Clear the pointer (and the reverse binding listing)."""
        if self.target is not None and self in self.target.connected_from:
            self.target.connected_from.remove(self)
        self.target = None

    def __repr__(self) -> str:  # pragma: no cover
        to = self.target.qualified_name if self.target else "(unconnected)"
        return f"<Required {self.qualified_name} -> {to}>"
