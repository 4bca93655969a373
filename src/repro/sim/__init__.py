"""Deterministic discrete-event simulation kernel.

The kernel (:class:`~repro.sim.kernel.Kernel`) keeps integer-nanosecond
virtual time and a binary heap of ``(time, seq)``-ordered callbacks
(see the design notes in :mod:`repro.sim.kernel`).  Concurrency
is expressed with generator bodies that yield
:class:`~repro.sim.process.Command` objects -- ``Timeout`` to advance time,
``WaitEvent`` to block on a one-shot :class:`~repro.sim.events.Event`.
The executor (:mod:`repro.sim.executor`) runs every component body.
``Process``, the generator engine that kernel and resource tests drive
directly, lives in ``tests/sim`` as the reference engine.

The FIFO channel built on top of events lives in
:mod:`repro.sim.resources`.
All randomness flows through :mod:`repro.sim.rng` seeded streams so every
simulation run is bit-for-bit reproducible.
"""

from repro.sim.clock import MICROSECOND, MILLISECOND, NANOSECOND, SECOND
from repro.sim.errors import SimulationError, ProcessKilled
from repro.sim.events import Event
from repro.sim.kernel import Kernel
from repro.sim.mailbox import Staging
from repro.sim.process import Command, Timeout, WaitEvent
from repro.sim.resources import Channel
from repro.sim.rng import RngRegistry
from repro.sim.shard import (
    Shard,
    ShardedSimulation,
    partition_graph,
    shard_core_blocks,
)

__all__ = [
    "Channel",
    "Command",
    "Event",
    "Kernel",
    "Shard",
    "ShardedSimulation",
    "Staging",
    "partition_graph",
    "shard_core_blocks",
    "MICROSECOND",
    "MILLISECOND",
    "NANOSECOND",
    "ProcessKilled",
    "RngRegistry",
    "SECOND",
    "SimulationError",
    "Timeout",
    "WaitEvent",
]
