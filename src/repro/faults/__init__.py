"""Fault injection and component supervision (robustness subsystem).

See ``docs/robustness.md``.  Quick tour::

    from repro.faults import FaultPlan
    from repro.runtime import RunConfig, build_run

    plan = FaultPlan(seed=7).crash("IDCT_2", on_receive=12) \
                            .drop("IDCT_2", "idctReorder", probability=0.05)
    rt = build_run(RunConfig(faults=plan, policy="restart"), app)  # injector + supervisor
    rt.run()
"""

from repro.faults.campaign import CampaignResult, build_plan, run_chaos_campaign
from repro.faults.decision import build_report, pareto_frontier, render_report
from repro.faults.fleet import (
    CampaignConfig,
    CellSpec,
    FleetError,
    FleetResult,
    build_grid,
    load_aggregate,
    run_fleet_campaign,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CORRUPT,
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    KINDS,
    OVERFLOW,
    STALL,
)
from repro.faults.supervisor import (
    DegradePolicy,
    HaltPolicy,
    RestartPolicy,
    SupervisionEvent,
    Supervisor,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CellSpec",
    "CORRUPT",
    "CRASH",
    "DELAY",
    "DROP",
    "DUPLICATE",
    "DegradePolicy",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "FleetError",
    "FleetResult",
    "HaltPolicy",
    "KINDS",
    "OVERFLOW",
    "RestartPolicy",
    "STALL",
    "SupervisionEvent",
    "Supervisor",
    "build_grid",
    "build_plan",
    "build_report",
    "load_aggregate",
    "pareto_frontier",
    "render_report",
    "run_chaos_campaign",
    "run_fleet_campaign",
]
