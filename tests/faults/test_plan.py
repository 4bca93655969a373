"""FaultPlan / FaultSpec validation and manifests."""

import pytest

from repro.faults import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    build_campaign_plan,
    build_cell_plan,
)
from repro.recovery.supervised import draw_kill_thresholds


def test_fluent_plan_builds_specs_in_order():
    plan = (
        FaultPlan(seed=7)
        .crash("A", on_receive=3)
        .drop("A", "out", probability=0.1)
        .duplicate("A", "out", probability=0.2)
        .delay("A", "out", probability=1.0, delay_ns=5_000)
        .corrupt("A", "out", probability=0.5)
        .stall("B", on_receive=2, delay_ns=1_000)
        .overflow("A", "out", capacity=4)
    )
    assert len(plan) == 7
    kinds = [s.kind for s in plan.specs]
    assert kinds == ["crash", "drop", "duplicate", "delay", "corrupt", "stall", "overflow"]
    assert plan.seed == 7


def test_describe_is_json_friendly_and_stable():
    plan = FaultPlan(seed=1).crash("A", at_ns=500).drop("A", "out", probability=0.25)
    manifest = plan.describe()
    assert manifest == [
        {"kind": "crash", "component": "A", "at_ns": 500},
        {"kind": "drop", "component": "A", "interface": "out", "probability": 0.25},
    ]


def test_crash_needs_exactly_one_trigger():
    with pytest.raises(FaultPlanError, match="exactly one"):
        FaultSpec("crash", "A")
    with pytest.raises(FaultPlanError, match="exactly one"):
        FaultSpec("crash", "A", at_ns=1, on_receive=1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(kind="nope", component="A"), "unknown fault kind"),
        (dict(kind="drop", component="", interface="out"), "target component"),
        (dict(kind="drop", component="A", interface="out", probability=1.5), "probability"),
        (dict(kind="drop", component="A"), "required interface"),
        (dict(kind="delay", component="A", interface="out"), "delay_ns"),
        (dict(kind="stall", component="A"), "delay_ns"),
        (dict(kind="overflow", component="A", interface="out"), "capacity"),
        (dict(kind="crash", component="A", on_receive=0), "counts from 1"),
        (dict(kind="crash", component="A", at_ns=-5), "negative"),
    ],
)
def test_invalid_specs_are_rejected(kwargs, match):
    with pytest.raises(FaultPlanError, match=match):
        FaultSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(kind="drop", component="A", interface="out", delay_ns=-1),
         "negative delay_ns"),
        (dict(kind="overflow", component="A", interface="out", capacity=-2),
         "negative capacity"),
    ],
)
def test_negative_fields_are_rejected_eagerly(kwargs, match):
    with pytest.raises(FaultPlanError, match=match):
        FaultSpec(**kwargs)


def test_unknown_kind_error_names_the_taxonomy():
    with pytest.raises(FaultPlanError, match="repro.faults.plan"):
        FaultSpec("sigsegv", "A")


def test_validate_rejects_overlapping_stall_windows():
    plan = (
        FaultPlan(seed=1)
        .stall("A", on_receive=4, delay_ns=1_000)
        .stall("A", on_receive=4, delay_ns=2_000)
    )
    with pytest.raises(FaultPlanError, match="overlapping stall windows"):
        plan.validate()


def test_validate_allows_disjoint_stalls_and_returns_self():
    plan = (
        FaultPlan(seed=1)
        .stall("A", on_receive=4, delay_ns=1_000)
        .stall("A", on_receive=5, delay_ns=1_000)
        .stall("B", on_receive=4, delay_ns=1_000)
    )
    assert plan.validate() is plan


def test_validate_rejects_duplicate_crash_triggers():
    plan = FaultPlan(seed=1).crash("A", on_receive=3).crash("A", on_receive=3)
    with pytest.raises(FaultPlanError, match="duplicate crash trigger"):
        plan.validate()
    # distinct triggers on the same component are fine
    FaultPlan(seed=1).crash("A", on_receive=3).crash("A", on_receive=4).validate()


def test_injector_validates_the_plan_at_construction():
    from repro.faults import FaultInjector

    plan = FaultPlan(seed=1).crash("A", on_receive=3).crash("A", on_receive=3)
    with pytest.raises(FaultPlanError, match="duplicate crash trigger"):
        FaultInjector(plan)


# Seeded plans pinned as literals: comparing one run against another
# would not catch a reordered draw from the named RNG streams.
PINNED_PLANS = [
    (
        lambda: build_campaign_plan(1, 8),
        [
            {"kind": "crash", "component": "IDCT_1", "on_receive": 41},
            {"kind": "crash", "component": "IDCT_2", "on_receive": 29},
            {"kind": "crash", "component": "IDCT_3", "on_receive": 10},
            {"kind": "drop", "component": "IDCT_2", "interface": "idctReorder",
             "probability": 0.05},
            {"kind": "duplicate", "component": "IDCT_1", "interface": "idctReorder",
             "probability": 0.05},
        ],
    ),
    (
        lambda: build_cell_plan(42, 4, "crash", "heavy"),
        [
            {"kind": "crash", "component": "IDCT_1", "on_receive": 4},
            {"kind": "crash", "component": "IDCT_2", "on_receive": 7},
            {"kind": "crash", "component": "IDCT_3", "on_receive": 5},
        ],
    ),
    (
        lambda: build_cell_plan(7, 4, "stall", "heavy"),
        [
            {"kind": "stall", "component": "IDCT_1", "on_receive": 10,
             "delay_ns": 2_500_000},
            {"kind": "stall", "component": "IDCT_2", "on_receive": 4,
             "delay_ns": 2_500_000},
            {"kind": "stall", "component": "IDCT_3", "on_receive": 7,
             "delay_ns": 2_500_000},
        ],
    ),
]


@pytest.mark.parametrize(
    "build, expected", PINNED_PLANS,
    ids=["campaign-s1", "cell-s42-crash", "cell-s7-stall"],
)
def test_seeded_plans_are_pinned(build, expected):
    assert build().describe() == expected


# The kill-9 parent's SIGKILL thresholds for CI's ``--images 10 --kill9 2``
# runs, as the campaign.kill9 stream gave them when they were plan specs.
@pytest.mark.parametrize(
    "seed, expected", [(1, [7, 8]), (7, [1, 4]), (42, [3, 6])], ids=["s1", "s7", "s42"]
)
def test_kill_thresholds_are_pinned(seed, expected):
    assert draw_kill_thresholds(seed, 10, 2) == expected
