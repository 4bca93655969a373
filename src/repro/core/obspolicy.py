"""Observation policies: configuring the observation context.

Paper section 3: EMBera must be configurable "to serve a specific
observation context", and the conclusion asks "how to select the events
to be observed".  A policy selects which levels a component's
observation service answers, which middleware operations are timed (with
optional sampling to bound overhead on target), and whether byte
accounting is kept.  Counters stay exact regardless -- they are the
cheap part and Table 2 depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.core.errors import ObservationError
from repro.core.observation import APPLICATION_LEVEL, LEVELS


@dataclass(frozen=True)
class ObservationPolicy:
    """What a component's probe records and its service answers.

    Parameters
    ----------
    levels:
        Observation levels the service answers; querying a disabled
        level raises :class:`ObservationError` at the observer.
    time_middleware:
        Record send/receive durations at all (timers).
    sample_every:
        Record only every N-th middleware duration (1 = all).  Counters
        are unaffected.
    track_bytes:
        Keep byte totals per component.
    telemetry:
        Allow :func:`repro.metrics.telemetry.enable_telemetry` to attach
        live instruments (and contract checking) to this component's
        probe.  Telemetry is never sampled -- contracts must see every
        message -- so the only way to shed its cost is to turn it off.
    """

    levels: FrozenSet[str] = frozenset(LEVELS)
    time_middleware: bool = True
    sample_every: int = 1
    track_bytes: bool = True
    telemetry: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.levels) - set(LEVELS)
        if unknown:
            raise ObservationError(f"unknown observation levels: {sorted(unknown)}")
        if self.sample_every < 1:
            raise ObservationError(f"sample_every must be >= 1, got {self.sample_every}")

    def allows_level(self, level: str) -> bool:
        """Whether the policy serves the given level."""
        return level in self.levels

    @classmethod
    def full(cls) -> "ObservationPolicy":
        """Everything on -- the default."""
        return cls()

    @classmethod
    def counters_only(cls) -> "ObservationPolicy":
        """Application-level counters only: minimal-overhead context."""
        return cls(
            levels=frozenset({APPLICATION_LEVEL}),
            time_middleware=False,
            track_bytes=False,
            telemetry=False,
        )

    @classmethod
    def sampled(cls, every: int) -> "ObservationPolicy":
        """All levels, but middleware timings sampled 1-in-``every``."""
        return cls(sample_every=every)


#: The default policy applied when none is configured.
DEFAULT_POLICY = ObservationPolicy.full()
