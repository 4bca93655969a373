"""FaultPlan / FaultSpec validation and manifests."""

import hashlib
import json

import pytest

from repro.faults import FaultPlan, FaultPlanError, FaultSpec, build_plan
from repro.faults.campaign import FAULT_CLASSES, INTENSITIES, PLAN_TEMPLATES
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
        lambda: build_plan(1, 8, "campaign"),
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
        lambda: build_plan(42, 4, "crash.heavy"),
        [
            {"kind": "crash", "component": "IDCT_1", "on_receive": 4},
            {"kind": "crash", "component": "IDCT_2", "on_receive": 7},
            {"kind": "crash", "component": "IDCT_3", "on_receive": 5},
        ],
    ),
    (
        lambda: build_plan(7, 4, "stall.heavy"),
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


def _canonical_sha256(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_templates_are_the_campaign_plan_and_the_fleet_grid():
    cells = [f"{c}.{i}" for c in FAULT_CLASSES for i in INTENSITIES]
    assert list(PLAN_TEMPLATES) == ["campaign", *cells]


# sha256 of the canonical JSON of every template's plan at seeds 1/7/42
# and 4/10 images, as the two builders the template table replaced gave
# them.
TEMPLATE_PINS = {
    "campaign-s1-n4": "285582caf7cdc4f6c19a22488192e9d60564e9f84a04dfd10934e9986c05d4ce",
    "campaign-s1-n10": "5ba44b6f0961c34fbfd8ee9d542382fc8c4aefd7fe84f45b9618884d9ce84b22",
    "campaign-s7-n4": "b5e8ed3c51cb244cf3d7e213f93874a11cccdd41b0c1fb6b3427c5edeae4c3f3",
    "campaign-s7-n10": "a2fdc8ee53776d33b5845e7d990e72a040877c6a305aafc162a9a5b47744044b",
    "campaign-s42-n4": "1fc5a20147e1a0e0decdc20a8721ce308f592b2db52020607015bed91773d32d",
    "campaign-s42-n10": "cb741dbca0f24ad1b01d81be52f350e79a3dbf174d9b61a6b1c6739160516204",
    "crash.light-s1-n4": "66faffd92e84b0ebb9d1fc8e267c4cb5d1a7d59e46cb68a1a3ecd46e18a0f2b7",
    "crash.light-s1-n10": "0dbf47890f161fc47ef28a336fb1cde78881734dc1e719b84bf158f58b84f5ea",
    "crash.light-s7-n4": "fc8b618019ade8e1f032b4d605f9edc91c5ce859896ff316a3a18f56c5e00499",
    "crash.light-s7-n10": "f2374f4484cda8248b714b38a7870d355a4e72ea13e42c6b75660ab9b1c9b847",
    "crash.light-s42-n4": "f6caaa2b5708588418a04abedfae2433aea847189e7d0b48efdc37c01754cd90",
    "crash.light-s42-n10": "fc8b618019ade8e1f032b4d605f9edc91c5ce859896ff316a3a18f56c5e00499",
    "crash.heavy-s1-n4": "f00bfc5780c1e857003a18b422eeb55feac22be4fb20eee8efd1f12036e13523",
    "crash.heavy-s1-n10": "edc17ee4836a6965195b1fc302e8afff26d16b1c84a933a88ef5252de36f2fbc",
    "crash.heavy-s7-n4": "6cb075b9b90f3e5655e9aed7a0bfbb8a51fb7fcc705c63952ab4edda79ff882e",
    "crash.heavy-s7-n10": "824b29553978ebe3dc52a6dd534c78b12cf54f508a1d440252a7d92e52f3ffdb",
    "crash.heavy-s42-n4": "39e78278fa85b2879a2b9497abeeaa1267a7b740e7c0f621a95a7fc3e9f8d607",
    "crash.heavy-s42-n10": "05ddc3366281cae4ecef10b6b70f93e44c559717d2a00f11707b3107c7d855c0",
    "drop.light-s1-n4": "13c88fe6f119a543c02f65a9e1468c0b9432441f1a475e346640bbb32ee327a5",
    "drop.light-s1-n10": "13c88fe6f119a543c02f65a9e1468c0b9432441f1a475e346640bbb32ee327a5",
    "drop.light-s7-n4": "13c88fe6f119a543c02f65a9e1468c0b9432441f1a475e346640bbb32ee327a5",
    "drop.light-s7-n10": "13c88fe6f119a543c02f65a9e1468c0b9432441f1a475e346640bbb32ee327a5",
    "drop.light-s42-n4": "13c88fe6f119a543c02f65a9e1468c0b9432441f1a475e346640bbb32ee327a5",
    "drop.light-s42-n10": "13c88fe6f119a543c02f65a9e1468c0b9432441f1a475e346640bbb32ee327a5",
    "drop.heavy-s1-n4": "94647360038dc9115ba4576b2010f47539d1d5c0b15e450bd1b297997cd14fb7",
    "drop.heavy-s1-n10": "94647360038dc9115ba4576b2010f47539d1d5c0b15e450bd1b297997cd14fb7",
    "drop.heavy-s7-n4": "94647360038dc9115ba4576b2010f47539d1d5c0b15e450bd1b297997cd14fb7",
    "drop.heavy-s7-n10": "94647360038dc9115ba4576b2010f47539d1d5c0b15e450bd1b297997cd14fb7",
    "drop.heavy-s42-n4": "94647360038dc9115ba4576b2010f47539d1d5c0b15e450bd1b297997cd14fb7",
    "drop.heavy-s42-n10": "94647360038dc9115ba4576b2010f47539d1d5c0b15e450bd1b297997cd14fb7",
    "duplicate.light-s1-n4": "cce5d836d049e254b3b3ee00fa5ffc7a832d661826c187674730f0a323245d5a",
    "duplicate.light-s1-n10": "cce5d836d049e254b3b3ee00fa5ffc7a832d661826c187674730f0a323245d5a",
    "duplicate.light-s7-n4": "cce5d836d049e254b3b3ee00fa5ffc7a832d661826c187674730f0a323245d5a",
    "duplicate.light-s7-n10": "cce5d836d049e254b3b3ee00fa5ffc7a832d661826c187674730f0a323245d5a",
    "duplicate.light-s42-n4": "cce5d836d049e254b3b3ee00fa5ffc7a832d661826c187674730f0a323245d5a",
    "duplicate.light-s42-n10": "cce5d836d049e254b3b3ee00fa5ffc7a832d661826c187674730f0a323245d5a",
    "duplicate.heavy-s1-n4": "5694d1978f1583110cff446a0405926f3220f65534d1c5993afc32ff548117f4",
    "duplicate.heavy-s1-n10": "5694d1978f1583110cff446a0405926f3220f65534d1c5993afc32ff548117f4",
    "duplicate.heavy-s7-n4": "5694d1978f1583110cff446a0405926f3220f65534d1c5993afc32ff548117f4",
    "duplicate.heavy-s7-n10": "5694d1978f1583110cff446a0405926f3220f65534d1c5993afc32ff548117f4",
    "duplicate.heavy-s42-n4": "5694d1978f1583110cff446a0405926f3220f65534d1c5993afc32ff548117f4",
    "duplicate.heavy-s42-n10": "5694d1978f1583110cff446a0405926f3220f65534d1c5993afc32ff548117f4",
    "stall.light-s1-n4": "549dac2dec7f239171e8e5ef5a2a07236ad147569402925cf006bf21f011a988",
    "stall.light-s1-n10": "4ac3d7acb5f17e589adadc6a38aef865732ec86cfc2fa2e86f962ef4bccb719f",
    "stall.light-s7-n4": "5b42f0f9e5450f1dc11fc1b76bac2c0176a80d82cf32474ccef33631e33a6aa8",
    "stall.light-s7-n10": "6823871ad5277cce83486c71c9fadc0ca7cd2fa916edf86d383d3b01bf9ad665",
    "stall.light-s42-n4": "ac6ab1904b522e30c8873b8327548d750d8ca0d4f10738038848e0f42ecc0e86",
    "stall.light-s42-n10": "42d2224579fe55e3443333f5350b03c0384a8d91cef4f804ae560fbe510929c4",
    "stall.heavy-s1-n4": "757b899c9206202d8be29cc70b44ba717d89aa7d0e0e01896ed3254b597b53d6",
    "stall.heavy-s1-n10": "520d794a6cede01735041bd49909fd72f7ecdce1ea61979fe68893b0c1d14b8d",
    "stall.heavy-s7-n4": "19daf45f871654a5fd56f5d678e337a09d6e03326393aaa9081a7539ad728a2e",
    "stall.heavy-s7-n10": "1b20bbb8a6da7b5b1de81ec54e5ba00cccebf9d3bc11fbd31ec67810674f8930",
    "stall.heavy-s42-n4": "94755b1bbd027e33754ceecacc3d2ddf72bed85532b6a0c4caa5d1d7347f30e7",
    "stall.heavy-s42-n10": "6c62b536a96da7422f017089e803f72eae7b178e847051afaac5caaf0547d30f",
    "mixed.light-s1-n4": "5de0048c40187379f9e48da1230aca986a0a661d49a956fe664cca20ae949b18",
    "mixed.light-s1-n10": "530d60387950da2107281ddfbeddc438a7e81b855ab2335e6ac7e6c29c677c76",
    "mixed.light-s7-n4": "0ae5e1212a1a451880229e8f6645788f8eb817c21f37ad6350607e99becdae15",
    "mixed.light-s7-n10": "b772ba80d537c5ad1165dba88b13ad0c4a455d55448b0a944a20aa66c306f01b",
    "mixed.light-s42-n4": "5de0048c40187379f9e48da1230aca986a0a661d49a956fe664cca20ae949b18",
    "mixed.light-s42-n10": "f21a18e40807c1a7d2234cd181aafc61c57825d70fd1d7c4cb721ea449b45c02",
    "mixed.heavy-s1-n4": "4a02f5e0b49cc483a35d28b3c87fcab4c988028e6517a2b5b813666a1c2d3644",
    "mixed.heavy-s1-n10": "cfdc2c6f449e6839055f14256fe4c4b4f107ab1608e21c244e9cf668cf068985",
    "mixed.heavy-s7-n4": "cb8781f5d7c4e802f16a9e73ad5ee7842030aa51e0718de0e79eaf57af8b7bf3",
    "mixed.heavy-s7-n10": "beacb52868a4e9f03c19cb918adc53ed05de690b210b46e408252d149ce271af",
    "mixed.heavy-s42-n4": "17d81f46d7c5d39005d8cf2ea0fd8e8c3a9663976fea6eced2d3e4f8578c2911",
    "mixed.heavy-s42-n10": "251e74918750e339eb2375da685eb3452d47c5a41be3821ac2e398fe537cd1f3",
}


@pytest.mark.parametrize("key", sorted(TEMPLATE_PINS))
def test_every_template_plan_is_pinned(key):
    template, seed, n = key.rsplit("-", 2)
    plan = build_plan(int(seed[1:]), int(n[1:]), template)
    assert _canonical_sha256(plan.describe()) == TEMPLATE_PINS[key]


def test_all_template_plans_hash_to_the_pinned_grid():
    plans = {
        f"{template}-s{seed}-n{n}": build_plan(seed, n, template).describe()
        for template in PLAN_TEMPLATES
        for seed in (1, 7, 42)
        for n in (4, 8, 10)
    }
    assert len(plans) == 99
    assert _canonical_sha256(plans) == (
        "22f599c3edfbc18e07d9e784e79b97c714e4445a7c0a5adf7cd5be09c38181a8"
    )


def test_a_stream_too_short_for_a_plan_is_refused():
    with pytest.raises(FaultPlanError, match="at least 3 images, got 2"):
        build_plan(1, 2, "campaign")


# The kill-9 parent's SIGKILL thresholds for CI's ``--images 10 --kill9 2``
# runs, as the campaign.kill9 stream gave them when they were plan specs.
@pytest.mark.parametrize(
    "seed, expected", [(1, [7, 8]), (7, [1, 4]), (42, [3, 6])], ids=["s1", "s7", "s42"]
)
def test_kill_thresholds_are_pinned(seed, expected):
    assert draw_kill_thresholds(seed, 10, 2) == expected
