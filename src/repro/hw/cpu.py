"""CPU cost models.

A :class:`CpuModel` converts logical work units into nanoseconds through a
per-operation-class cycle table.  This is the single point where
heterogeneity enters the simulation: the same ``Compute("idct_block", n)``
command costs very different time on an ST231 accelerator and on the
general-purpose ST40 -- which is exactly the asymmetry behind the paper's
Table 3 and Figure 8.

The reserved opclass ``"ns"`` charges raw nanoseconds (units are already
time), used for fixed syscall/transport overheads.
"""

from __future__ import annotations

from typing import Mapping, Optional


class CpuModel:
    """Frequency plus a cycles-per-unit table for operation classes."""

    __slots__ = ("name", "freq_hz", "cycles_per_unit", "default_cycles", "_ns_per_cycle")

    def __init__(
        self,
        name: str,
        freq_hz: float,
        cycles_per_unit: Optional[Mapping[str, float]] = None,
        default_cycles: float = 1.0,
    ) -> None:
        if freq_hz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_hz}")
        if default_cycles < 0:
            raise ValueError(f"default cycles must be >= 0, got {default_cycles}")
        self.name = name
        self.freq_hz = float(freq_hz)
        self.cycles_per_unit = dict(cycles_per_unit or {})
        for opclass, cycles in self.cycles_per_unit.items():
            if cycles < 0:
                raise ValueError(f"negative cycle cost for {opclass!r}: {cycles}")
        self.default_cycles = float(default_cycles)
        self._ns_per_cycle = 1e9 / self.freq_hz

    def cycles_for(self, opclass: str) -> float:
        """Cycle cost of one unit of ``opclass`` on this CPU."""
        return self.cycles_per_unit.get(opclass, self.default_cycles)

    def cost_ns(self, opclass: str, units: float) -> int:
        """Nanoseconds to execute ``units`` of ``opclass`` work."""
        if opclass == "ns":
            return round(units)
        return round(units * self.cycles_for(opclass) * self._ns_per_cycle)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CpuModel {self.name} {self.freq_hz / 1e6:.0f} MHz>"
