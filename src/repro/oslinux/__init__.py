"""Linux-like operating-system substrate for the simulated SMP platform.

Models the slice of Linux 2.6 the paper's EMBera implementation relies on:
POSIX-thread creation with stack-size attributes, a time-sharing SMP
scheduler and per-process heap accounting -- the observation functions
of paper section 4.2 are all answerable from here.
"""

from repro.oslinux.system import DEFAULT_STACK_BYTES, LinuxProcess, LinuxSystem, PThread

__all__ = ["DEFAULT_STACK_BYTES", "LinuxProcess", "LinuxSystem", "PThread"]
