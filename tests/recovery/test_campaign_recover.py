"""The headline claim: ``repro faults --recover`` is exactly-once.

Under the seeded chaos campaign (component crashes, message drops,
duplicates on the MJPEG SMP decode) the recovery manager must reproduce
the *complete* frame set bit-identically to the fault-free reference --
not merely keep the survivors exact.
"""

import pytest

from repro.faults import run_chaos_campaign
from repro.runtime.base import RuntimeError_

SEEDS = [1, 7, 42]


@pytest.fixture(scope="module", params=SEEDS)
def recovered(request):
    return run_chaos_campaign(seed=request.param, n_images=6, recover=True)


def test_complete_frame_set_bit_exact(recovered):
    r = recovered
    assert r.recover
    assert r.ok
    assert r.lost_frames == []
    assert r.frames_delivered == r.frames_expected
    assert r.frames_digest == r.reference_frames_digest
    assert r.injected.get("crash", 0) == 3
    assert r.restarts >= 3


def test_recovery_activity_is_reported(recovered):
    rec = recovered.recovery
    assert rec["restores"] == recovered.restarts
    assert rec["replayed"] > 0
    assert rec["checkpoints"] > 0
    # every component reached at least epoch 0
    assert set(rec["epochs"]) >= {"Fetch", "IDCT_1", "IDCT_2", "IDCT_3", "Reorder"}
    s = recovered.summary()
    assert s["recovery"] == rec and s["recover"] is True


def test_record_is_the_summary_without_cell_fields(recovered):
    record = recovered.record()
    summary = recovered.summary()
    assert set(summary) - set(record) == {"seed", "n_images", "recover", "shards"}
    assert {k: record[k] for k in record if k != "recovery"} == {
        k: summary[k] for k in record if k != "recovery"
    }
    # the per-component epoch map is dropped, the counters are kept
    assert "epochs" in summary["recovery"] and "epochs" not in record["recovery"]
    assert record["recovery"]["replayed"] == summary["recovery"]["replayed"] > 0


def test_recovery_run_is_seed_reproducible():
    a = run_chaos_campaign(seed=1, n_images=6, recover=True)
    b = run_chaos_campaign(seed=1, n_images=6, recover=True)
    assert a.frames_digest == b.frames_digest
    assert a.recovery == b.recovery
    assert a.schedule == b.schedule


def test_without_recovery_the_same_seed_loses_frames():
    """The control experiment: recovery off, same fault schedule --
    frames are actually lost, so the exactly-once result above is the
    recovery manager's doing, not a toothless fault plan."""
    plain = run_chaos_campaign(seed=1, n_images=6)
    assert plain.ok  # survivors are still bit-exact ...
    assert plain.lost_frames  # ... but the crash cost frames
    recovered = run_chaos_campaign(seed=1, n_images=6, recover=True)
    assert recovered.lost_frames == []


def test_recovery_campaign_on_sharded_runtime_is_refused():
    with pytest.raises(RuntimeError_, match="sharded"):
        run_chaos_campaign(seed=1, n_images=4, recover=True, shards=2)


def test_recover_flag_does_not_override_another_named_policy():
    with pytest.raises(ValueError, match="recover=True selects the recover policy"):
        run_chaos_campaign(seed=1, n_images=4, recover=True, policy="halt")
