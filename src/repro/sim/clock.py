"""Time units and conversions for the simulation kernel.

All simulated time is kept as *integer nanoseconds*.  Integers keep the
event queue total-ordered and reproducible: there is no floating-point
accumulation drift, and two events scheduled for the same instant compare
by insertion sequence number only.
"""

from __future__ import annotations

NANOSECOND: int = 1
MICROSECOND: int = 1_000
MILLISECOND: int = 1_000_000
SECOND: int = 1_000_000_000

