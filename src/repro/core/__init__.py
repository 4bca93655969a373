"""The EMBera component model with first-class observation.

This package is the paper's contribution (sections 3 and 4):

- :class:`~repro.core.component.Component` -- an active software entity
  with *provided* and *required* interfaces and its own execution flow.
- :class:`~repro.core.application.Application` -- the assembly: component
  creation, interconnection and lifecycle (the paper's *control
  interface*).
- :class:`~repro.core.messages.Message` -- one-way asynchronous messages
  flowing through mailbox-backed provided interfaces.
- :mod:`repro.core.observation` -- the *observation interface*: every
  component carries a provided + required ``introspection`` interface
  pair by default, through which an
  :class:`~repro.core.observer.ObserverComponent` gathers OS-level,
  middleware-level and application-level reports without any change to
  component behaviour code.
- :mod:`repro.core.introspection` -- the Figure 5 interface listing.

Components are runtime-agnostic: behaviour generators interact with the
world only through :class:`~repro.core.context.ComponentContext`, so the
same component runs untouched on the native thread runtime and on both
simulated platforms -- the portability argument of the paper.
"""

from repro.core.application import Application
from repro.core.component import Component, ComponentState
from repro.core.context import ComponentContext
from repro.core.contracts import ContractChecker, InterfaceContract
from repro.core.errors import (
    ConnectionError_,
    DeadlineError,
    EmberaError,
    EscalationError,
    InjectedFault,
    LifecycleError,
)
from repro.core.interfaces import OBSERVATION_INTERFACE, ProvidedInterface, RequiredInterface
from repro.core.introspection import format_interfaces
from repro.core.messages import CONTROL, DATA, OBSERVATION, Message, payload_nbytes
from repro.core.observation import (
    APPLICATION_LEVEL,
    MIDDLEWARE_LEVEL,
    OS_LEVEL,
    ObservationProbe,
    ObservationReply,
    ObservationRequest,
)
from repro.core.observer import ObserverComponent

__all__ = [
    "APPLICATION_LEVEL",
    "Application",
    "CONTROL",
    "Component",
    "ComponentContext",
    "ComponentState",
    "ConnectionError_",
    "ContractChecker",
    "DeadlineError",
    "DATA",
    "InterfaceContract",
    "EmberaError",
    "EscalationError",
    "InjectedFault",
    "LifecycleError",
    "MIDDLEWARE_LEVEL",
    "Message",
    "OBSERVATION",
    "OBSERVATION_INTERFACE",
    "OS_LEVEL",
    "ObservationProbe",
    "ObservationReply",
    "ObservationRequest",
    "ObserverComponent",
    "ProvidedInterface",
    "RequiredInterface",
    "format_interfaces",
    "payload_nbytes",
]
