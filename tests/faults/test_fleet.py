"""Fleet campaign orchestrator: grid, reference cache, resume, reaping."""

import json
import os
import re

import pytest

from repro.faults import CampaignResult, FaultPlanError, build_plan
from repro.faults.fleet import (
    CampaignConfig,
    CellSpec,
    FleetError,
    build_grid,
    cell_result_path,
    load_aggregate,
    quarantine_path,
    run_fleet_campaign,
)

#: A tiny grid (2 cells, one reference) that still exercises both a
#: restarting and a halting policy.
TINY = dict(
    seeds=(1,),
    fault_classes=("crash",),
    intensities=("light",),
    policies=("restart", "halt"),
    shard_counts=(1,),
    n_images=4,
)


# -- grid ------------------------------------------------------------------


def test_grid_is_the_cross_product_in_canonical_order():
    config = CampaignConfig(
        seeds=(1, 7),
        fault_classes=("crash", "drop"),
        intensities=("light", "heavy"),
        policies=("restart", "halt"),
        shard_counts=(1, 2),
        n_images=4,
    )
    grid = build_grid(config)
    assert len(grid) == 2 * 2 * 2 * 2 * 2
    assert [c.index for c in grid] == list(range(len(grid)))
    # the slowest-varying axis is the seed, the fastest the shard count
    assert grid[0].cell_id == "c00000-s1-crash.light-restart-sh1"
    assert grid[1].shards == 2
    assert grid[-1].cell_id == f"c{len(grid)-1:05d}-s7-drop.heavy-halt-sh2"


def test_grid_includes_recover_on_sharded_platforms(tmp_path):
    config = CampaignConfig(
        seeds=(1,),
        fault_classes=("crash",),
        intensities=("light",),
        policies=("restart", "recover"),
        shard_counts=(1, 2),
        n_images=4,
    )
    grid = build_grid(config)
    assert [(c.policy, c.shards) for c in grid] == [
        ("restart", 1), ("restart", 2), ("recover", 1), ("recover", 2),
    ]
    sharded = CampaignConfig(**{**TINY, "policies": ("recover",), "shard_counts": (2,)})
    result = run_fleet_campaign(str(tmp_path), sharded, max_workers=1)
    assert result.ok and result.cells_ok == 1


def test_constructor_refuses_an_empty_shard_counts_axis():
    with pytest.raises(FleetError, match="axis shard_counts is empty"):
        CampaignConfig(
            seeds=(1,),
            fault_classes=("crash",),
            intensities=("light",),
            policies=("recover",),
            shard_counts=(),
            n_images=4,
        )


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(seeds=()), "at least one seed"),
        (dict(seeds=(1, 1)), "duplicate campaign seeds"),
        (dict(seeds=(1,), policies=("restart", "reboot")), "unknown policy"),
        (dict(seeds=(1,), fault_classes=("meteor",)), "unknown fault class"),
        (dict(seeds=(1,), intensities=("medium",)), "unknown intensit"),
        (dict(seeds=(1,), shard_counts=(0,)), "shard count"),
        (dict(seeds=(1,), n_images=2), "at least 3 images"),
    ],
)
def test_config_is_validated_eagerly(kwargs, match):
    with pytest.raises(FleetError, match=match):
        CampaignConfig(**kwargs)


def test_config_roundtrips_and_digests_canonically():
    config = CampaignConfig(**TINY)
    clone = CampaignConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert clone == config
    assert clone.digest() == config.digest()


def test_cellspec_roundtrips():
    cell = CellSpec(3, 7, "stall", "heavy", "degrade", 2, 4)
    assert CellSpec.from_dict(cell.describe()) == cell
    assert cell.cell_id == "c00003-s7-stall.heavy-degrade-sh2"


# -- cell plans ------------------------------------------------------------


@pytest.mark.parametrize("fault_class", ["crash", "drop", "duplicate", "stall", "mixed"])
@pytest.mark.parametrize("intensity", ["light", "heavy"])
def test_cell_plans_are_deterministic_and_valid(fault_class, intensity):
    a = build_plan(42, 4, f"{fault_class}.{intensity}")
    b = build_plan(42, 4, f"{fault_class}.{intensity}")
    assert a.describe() == b.describe()
    assert len(a) >= 1
    a.validate()


def test_heavy_cells_inject_more_than_light():
    light = build_plan(1, 4, "crash.light")
    heavy = build_plan(1, 4, "crash.heavy")
    assert len(heavy) > len(light)


def test_unknown_cell_plan_inputs_are_rejected():
    with pytest.raises(FaultPlanError, match="unknown plan template"):
        build_plan(1, 4, "meteor.light")
    with pytest.raises(FaultPlanError, match="unknown plan template"):
        build_plan(1, 4, "crash.extreme")


# -- orchestrator ----------------------------------------------------------


def test_campaign_runs_resumes_and_reproduces_bytes(tmp_path):
    config = CampaignConfig(**TINY)
    first = run_fleet_campaign(str(tmp_path / "a"), config, max_workers=2)
    assert first.ok and first.executed == 2 and first.reused == 0
    assert first.cells_ok == 2

    # a second, independent run of the same config is byte-identical
    second = run_fleet_campaign(str(tmp_path / "b"), config, max_workers=2)
    assert second.aggregate_sha256 == first.aggregate_sha256

    # interrupt: lose one cell result and the aggregate, then resume
    root = str(tmp_path / "b")
    victim = build_grid(config)[0]
    os.unlink(cell_result_path(root, victim.cell_id))
    os.unlink(os.path.join(root, "aggregate.json"))
    resumed = run_fleet_campaign(root, resume=True, max_workers=2)
    assert resumed.reused == 1 and resumed.executed == 1
    assert resumed.aggregate_sha256 == first.aggregate_sha256

    # resuming a complete campaign re-runs nothing and keeps the bytes
    again = run_fleet_campaign(root, resume=True, max_workers=2)
    assert again.executed == 0 and again.reused == 2
    assert again.aggregate_sha256 == first.aggregate_sha256


def test_aggregate_lists_cells_in_grid_order(tmp_path):
    config = CampaignConfig(**TINY)
    result = run_fleet_campaign(str(tmp_path), config, max_workers=2)
    aggregate = load_aggregate(str(tmp_path))
    ids = [entry["cell"]["cell_id"] for entry in aggregate["cells"]]
    assert ids == [c.cell_id for c in build_grid(config)]
    assert aggregate["summary"]["ok"] is True
    assert aggregate["config_digest"] == config.digest()
    assert result.aggregate_path == str(tmp_path / "aggregate.json")


def test_reference_cache_is_shared_and_reused(tmp_path):
    config = CampaignConfig(**TINY)
    first = run_fleet_campaign(str(tmp_path), config, max_workers=2)
    # both cells share one per-seed reference
    assert first.references_built == 1
    # a resume finds the cache valid and rebuilds nothing
    resumed = run_fleet_campaign(str(tmp_path), resume=True)
    assert resumed.references_built == 0


def test_one_reference_per_seed_serves_every_shard_count(tmp_path):
    """The decoded pixels are shard-count invariant, so a grid over 1 and
    2 shards builds one reference per seed, and its aggregate is the one
    a per-(seed, shard count) cache gave."""
    seeds = (1, 7)
    config = CampaignConfig(
        seeds=seeds,
        fault_classes=("crash",),
        intensities=("light",),
        policies=("restart",),
        shard_counts=(1, 2),
        n_images=4,
    )
    result = run_fleet_campaign(str(tmp_path), config, max_workers=2)
    assert result.ok and result.cells_ok == 4
    assert result.references_built == len(seeds)
    assert result.aggregate_sha256 == (
        "fdf12d9418d0454ced19fc15a2f33abd0f37e7cf3c526786e38847d453e78477"
    )


def test_mismatched_config_is_refused(tmp_path):
    run_fleet_campaign(str(tmp_path), CampaignConfig(**TINY), max_workers=2)
    other = CampaignConfig(**{**TINY, "seeds": (2,)})
    with pytest.raises(FleetError, match="different configuration"):
        run_fleet_campaign(str(tmp_path), other)


def test_resume_without_manifest_is_an_error(tmp_path):
    with pytest.raises(FleetError, match="no campaign to resume"):
        run_fleet_campaign(str(tmp_path / "nope"), resume=True)


def test_crashing_worker_is_retried_then_quarantined(tmp_path):
    def suicidal(root, cell_dict, settings):
        os._exit(17)

    config = CampaignConfig(**{**TINY, "policies": ("restart",)})
    result = run_fleet_campaign(
        str(tmp_path), config, max_workers=1,
        max_cell_attempts=2, worker=suicidal,
    )
    assert not result.ok
    assert result.failed_attempts == 2
    cell_id = build_grid(config)[0].cell_id
    assert result.quarantined == [cell_id]
    assert os.path.exists(quarantine_path(str(tmp_path), cell_id))
    aggregate = load_aggregate(str(tmp_path))
    assert aggregate["quarantined"] == [cell_id]
    assert aggregate["summary"]["ok"] is False


def test_hung_worker_is_reaped_by_timeout(tmp_path):
    import time as _time

    def hung(root, cell_dict, settings):
        _time.sleep(3600)

    config = CampaignConfig(**{**TINY, "policies": ("restart",)})
    result = run_fleet_campaign(
        str(tmp_path), config, max_workers=1, cell_timeout_s=0.2,
        max_cell_attempts=1, worker=hung,
    )
    assert not result.ok
    assert result.failed_attempts == 1
    assert len(result.quarantined) == 1


def test_flaky_worker_recovers_on_retry_and_clears_quarantine(tmp_path):
    from repro.faults.fleet import _cell_worker

    flag = tmp_path / "attempted"

    def flaky(root, cell_dict, settings):
        if not flag.exists():
            flag.write_text("1")
            os._exit(1)
        _cell_worker(root, cell_dict, settings)

    config = CampaignConfig(**{**TINY, "policies": ("restart",)})
    result = run_fleet_campaign(
        str(tmp_path / "c"), config, max_workers=1,
        max_cell_attempts=3, worker=flaky,
    )
    assert result.ok
    assert result.failed_attempts == 1 and result.executed == 1
    assert result.quarantined == []


def test_torn_cell_result_is_ignored_and_recomputed(tmp_path):
    config = CampaignConfig(**TINY)
    first = run_fleet_campaign(str(tmp_path), config, max_workers=2)
    victim = build_grid(config)[0]
    path = cell_result_path(str(tmp_path), victim.cell_id)
    with open(path, "w") as fh:
        fh.write('{"body": {"tampered": true}, "sha256": "beef"}')
    resumed = run_fleet_campaign(str(tmp_path), resume=True, max_workers=2)
    assert resumed.executed == 1 and resumed.reused == 1
    assert resumed.aggregate_sha256 == first.aggregate_sha256


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda config: config.update(deadline_us=6_500), "unknown: ['deadline_us']"),
        (lambda config: config.pop("n_images"), "missing: ['n_images']"),
    ],
    ids=["extra-key", "missing-key"],
)
def test_manifest_with_unknown_or_missing_keys_is_refused(tmp_path, capsys, edit, named):
    from repro.cli import main
    from repro.faults.fleet import MANIFEST_NAME, load_manifest
    from repro.recovery.durable import config_digest, write_checksummed_json

    config = CampaignConfig(**TINY).to_dict()
    edit(config)
    write_checksummed_json(
        str(tmp_path / MANIFEST_NAME),
        {"format": 1, "config": config, "config_digest": config_digest(config)},
    )
    with pytest.raises(FleetError, match=re.escape(named)):
        load_manifest(str(tmp_path))
    assert main(["campaign", "ls", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1


# -- CLI exit codes --------------------------------------------------------


def test_faults_cli_exits_nonzero_when_campaign_fails(monkeypatch, capsys):
    import repro.faults
    from repro.cli import main

    failed = CampaignResult(
        seed=0, n_images=3, plan=[], schedule=[], supervision=[], injected={},
        restarts=0, mttr_us=0, frames_expected=3, frames_delivered=0,
        lost_frames=[1, 2, 3], bit_exact=False,
    )
    assert not failed.ok
    monkeypatch.setattr(repro.faults, "run_chaos_campaign", lambda **kw: failed)
    assert main(["faults", "--images", "3"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_campaign_cli_exit_codes(tmp_path, capsys):
    from repro.cli import main

    # missing directory -> 2 for every inspection action
    assert main(["campaign", "report", str(tmp_path / "void")]) == 2
    assert main(["campaign", "ls", str(tmp_path / "void")]) == 2
    assert main(["campaign", "resume", str(tmp_path / "void")]) == 2
    capsys.readouterr()

    # a healthy tiny campaign -> 0 end to end
    root = str(tmp_path / "cam")
    argv = [
        "campaign", "run", root, "--seeds", "1", "--classes", "crash",
        "--intensities", "light", "--policies", "restart", "--shards", "1",
        "--images", "4", "--workers", "1", "--json",
    ]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is True and summary["n_cells"] == 1
    assert main(["campaign", "report", root]) == 0
    assert "Pareto frontier" in capsys.readouterr().out
    assert main(["campaign", "ls", root]) == 0
    assert "1 done, 0 missing" in capsys.readouterr().out

    # an invalid grid -> 2 with an actionable message
    bad = ["campaign", "run", str(tmp_path / "bad"), "--policies", "reboot"]
    assert main(bad) == 2
    assert "unknown policy" in capsys.readouterr().err
