"""A KPTrace-style kernel-level scheduler tracer.

Hooks the execution engine's context-switch callback and records every
ON/OFF-cpu transition with core id and thread name.  Like the real tool,
it reconstructs per-thread CPU time and switch counts from raw kernel
events -- and like the real tool, it has no idea what a "component" is:
mapping its output back to application structure is exactly the manual
step EMBera eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class SchedRecord:
    """One scheduler transition."""

    timestamp_ns: int
    core: int
    thread: Optional[str]  # thread leaving / entering the core
    event: str  # "switch_in" | "switch_out"


class KPTrace:
    """Kernel-event tracer over a simulated ExecEngine."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.records: List[SchedRecord] = []
        self._installed = False
        self._previous_hook = None

    # -- lifecycle -------------------------------------------------------------

    def install(self) -> "KPTrace":
        """Hook the engine's context-switch callback (chainable)."""
        if self._installed:
            raise RuntimeError("KPTrace already installed")
        self._previous_hook = self.engine.on_context_switch
        self.engine.on_context_switch = self._on_switch
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the previous context-switch hook."""
        if self._installed:
            self.engine.on_context_switch = self._previous_hook
            self._installed = False

    def _on_switch(self, core, old, new) -> None:
        now = self.engine.kernel.now
        if old is not None:
            self.records.append(SchedRecord(now, core.index, old.name, "switch_out"))
        if new is not None:
            self.records.append(SchedRecord(now, core.index, new.name, "switch_in"))
        if self._previous_hook is not None:
            self._previous_hook(core, old, new)

    # -- raw-event analyses (what a KPTrace user reconstructs by hand) ---------

    def event_count(self) -> int:
        """Number of raw scheduler records captured."""
        return len(self.records)

    def threads_seen(self) -> List[str]:
        """Sorted names of all threads that ever ran."""
        return sorted({r.thread for r in self.records if r.thread is not None})

    def cpu_time_by_thread(self) -> Dict[str, int]:
        """Reconstruct per-thread CPU time from switch events."""
        on_cpu: Dict[str, int] = {}
        totals: Dict[str, int] = {}
        for record in self.records:
            if record.thread is None:
                continue
            if record.event == "switch_in":
                on_cpu[record.thread] = record.timestamp_ns
            elif record.event == "switch_out" and record.thread in on_cpu:
                totals[record.thread] = totals.get(record.thread, 0) + (
                    record.timestamp_ns - on_cpu.pop(record.thread)
                )
        return totals

