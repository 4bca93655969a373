"""Exception hierarchy for the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class ProcessKilled(SimulationError):
    """Injected into a process generator when it is killed externally."""


class SchedulingError(SimulationError):
    """Raised on invalid scheduling requests (negative delays, re-running
    a finished kernel, triggering an already-triggered event, ...)."""
