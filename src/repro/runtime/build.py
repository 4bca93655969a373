"""One run configuration and the one place that assembles it.

A :class:`RunConfig` names a runtime and the planes a run carries;
:func:`build_run` builds the runtime, deploys the application and
installs the planes, which the runtime then attaches to every component
it deploys or adds mid-run.  A combination no runtime supports is refused when the
config is built, and a shard count the SMP runtime cannot place on the
application when :func:`build_run` first sees it: before any runtime
exists, instead of mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.hw.smp16 import CORES_PER_NODE, N_NODES
from repro.runtime.base import RuntimeError_
from repro.runtime.native import NativeRuntime
from repro.runtime.simulated import SmpSimRuntime, Sti7200SimRuntime

RUNTIMES = {"smp": SmpSimRuntime, "sti7200": Sti7200SimRuntime, "native": NativeRuntime}


class ConfigError(RuntimeError_):
    """A :class:`RunConfig` names a combination no runtime supports."""


@dataclass(frozen=True)
class RunConfig:
    """Which runtime a run uses and which planes it carries.

    ``shards`` is the :class:`~repro.runtime.simulated.SmpSimRuntime`
    shard count; ``faults`` is a :class:`~repro.faults.plan.FaultPlan`;
    ``policy`` names a supervision profile of
    :data:`repro.faults.campaign.POLICIES` and ``seed`` seeds it.  The ``recover`` policy adds exactly-once
    recovery, over the ``durable`` store when one is given.
    """

    runtime: str = "smp"
    shards: int = 1
    trace: bool = False
    telemetry: bool = False
    faults: Any = None
    policy: Optional[str] = None
    seed: int = 0
    durable: Any = None

    def __post_init__(self) -> None:
        cls = RUNTIMES.get(self.runtime)
        if cls is None:
            raise ConfigError(
                f"unknown runtime {self.runtime!r}; use one of {', '.join(RUNTIMES)}"
            )
        if self.shards < 1:
            raise ConfigError(f"shards={self.shards}: a run needs at least one shard")
        if cls is not SmpSimRuntime and self.shards != 1:
            raise ConfigError(
                f"runtime {self.runtime!r} does not take shards={self.shards!r}; "
                f"only runtime 'smp' does"
            )
        if self.durable is not None and not self.recovers:
            raise ConfigError(f"a durable store needs policy 'recover', not {self.policy!r}")

    @property
    def recovers(self) -> bool:
        """Whether the supervision policy installs exactly-once recovery."""
        from repro.faults.campaign import POLICIES

        return self.policy is not None and POLICIES[self.policy].recover


def _check_placement(shards: int, app) -> None:
    """Refuse a shard count the SMP runtime cannot place: every shard
    owns a block of at least one core and hosts at least one of
    ``app``'s components."""
    cores = N_NODES * CORES_PER_NODE
    if shards > cores:
        raise ConfigError(
            f"shards={shards}: runtime 'smp' has {cores} cores and each shard "
            f"needs one of its own; use at most {cores} shards"
        )
    n = len(app.components)
    if shards > n:
        raise ConfigError(
            f"shards={shards}: the application has {n} components and each shard "
            f"needs one; use at most {n} shards"
        )


def build_run(config: RunConfig, app):
    """Build ``config``'s runtime, deploy ``app`` and install the planes
    it asks for.  Returns the deployed, unstarted runtime; the planes
    hang off its ``trace``, ``metrics``, ``injector``, ``recovery`` and
    ``supervisor`` attributes, and every component the runtime creates
    later is attached to them too."""
    from repro.faults.campaign import POLICIES
    from repro.faults.injector import FaultInjector
    from repro.faults.supervisor import Supervisor
    from repro.metrics.telemetry import enable_telemetry
    from repro.recovery.manager import RecoveryManager
    from repro.trace.tracer import enable_tracing

    cls = RUNTIMES[config.runtime]
    if cls is SmpSimRuntime:
        _check_placement(config.shards, app)
    rt = cls(shards=config.shards) if cls is SmpSimRuntime else cls()
    rt.deploy(app)
    if config.trace:
        enable_tracing(rt)
    if config.telemetry:
        enable_telemetry(rt)
    if config.faults is not None:
        FaultInjector(config.faults).install(rt)
    if config.recovers:
        RecoveryManager(durable=config.durable).install(rt)
    if config.policy is not None:
        Supervisor(policy=POLICIES[config.policy].factory(), seed=config.seed).install(rt)
    return rt
