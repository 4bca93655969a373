"""Exactly-once recovery for EMBera applications.

Three cooperating layers (see ``docs/robustness.md``):

- **Checkpointing** -- components expose :meth:`~repro.core.component.Component.snapshot`
  / :meth:`~repro.core.component.Component.restore` through the control
  interface; the :class:`RecoveryManager` commits periodic checkpoints at
  consistent boundaries and restores the latest one before a supervised
  restart.
- **Durable acked delivery** -- every data/control send is stamped with a
  contiguous per-connection delivery sequence number (``Message.dseq``)
  and buffered sender-side until the receiver folds it into a committed
  checkpoint (ack-on-checkpoint).  Receivers dedup duplicates and heal
  sequence gaps from the retransmit buffer.
- **Crash-consistent replay** -- on restart, unacknowledged messages are
  replayed to the restored component in original send order, each replica
  causally linked to the original send's span.

Together these make the fault injector's crash / drop / duplicate faults
recoverable with exactly-once end-to-end effects on the native, SMP and
STi7200 runtimes, and through the EMBX transport.

A fourth layer (PR 7) makes the first three survive real process death:
:class:`~repro.recovery.durable.DurableStore` mirrors the protocol into
an append-only :class:`~repro.recovery.wal.WriteAheadLog` plus on-disk
checkpoint spills, and ``RecoveryManager(durable=...)`` cold-restores
the consistent cut in a fresh process -- the basis of the supervised
``kill -9`` campaign in :mod:`repro.recovery.supervised`, which forks
:func:`repro.recovery.worker.run_worker` and SIGKILLs it.

Recovery needs a runtime that can replay messages into a binding;
:meth:`RecoveryManager.install` refuses the sharded simulation.
"""

from repro.recovery.durable import DurableError, DurableStore, FrameStore
from repro.recovery.manager import RecoveryManager
from repro.recovery.wal import WalError, WriteAheadLog

__all__ = [
    "DurableError",
    "DurableStore",
    "FrameStore",
    "RecoveryManager",
    "WalError",
    "WriteAheadLog",
]
