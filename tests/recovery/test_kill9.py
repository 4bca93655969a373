"""Real process death: SIGKILL the component-hosting OS process.

The tentpole acceptance oracle, one seed's worth (the 1/7/42 matrix
runs in CI's ``chaos`` job): a native-runtime worker process
is killed -9 mid-campaign at a seed-derived durable-frame count, cold
restored from the on-disk WAL + checkpoints by a fresh incarnation, and
the complete decoded frame set on disk must be sha256-identical to the
fault-free in-process reference.  Nothing the child claims is trusted
-- the digest is recomputed by this (parent) process from the bytes on
disk.
"""

import json
import multiprocessing
import os
import time

import pytest

import repro.recovery.supervised as supervised
from repro.recovery.supervised import EXTRA_RESPAWNS, run_durable_campaign


def test_sigkill_mid_campaign_restores_bit_exact_frames(tmp_path):
    result = run_durable_campaign(
        seed=7,
        n_images=6,
        durable_dir=str(tmp_path / "state"),
        kill9s=1,
        timeout_s=300.0,
    )
    assert result.kills == 1  # the SIGKILL really happened
    assert result.spawns >= 2  # and a fresh incarnation took over
    # The MJPEG stream's frame convention: n_images - 1 decoded frames.
    assert result.frames_expected == 5
    assert result.frames_delivered == result.frames_expected
    assert result.frames_digest == result.reference_frames_digest
    assert result.ok
    # The surviving directory passes its own consistency audit.
    from repro.recovery.durable import DurableStore

    with open(os.path.join(result.durable_dir, "CONFIG.json")) as fh:
        config = json.load(fh)
    report = DurableStore(result.durable_dir, config=config).open().verify()
    assert report["ok"]
    # The worker recorded its cold restore in RESULT.json.
    with open(os.path.join(result.durable_dir, "RESULT.json")) as fh:
        worker = json.load(fh)
    assert worker["recovery"]["durable"]["cold_restored"] is True


def test_worker_that_keeps_dying_exhausts_the_respawn_budget(tmp_path, monkeypatch):
    """A child that exits nonzero on every spawn is respawned until the
    budget (scheduled kills + EXTRA_RESPAWNS) is spent, then the parent
    gives up with no child left behind."""
    spawned = tmp_path / "spawned"
    spawned.mkdir()

    def dying(root):
        (spawned / str(os.getpid())).touch()
        os._exit(3)

    monkeypatch.setattr(supervised, "run_worker", dying)
    kill9s = 2
    with pytest.raises(RuntimeError, match="died"):
        run_durable_campaign(
            seed=1, n_images=4, durable_dir=str(tmp_path / "state"),
            kill9s=kill9s, timeout_s=60.0,
        )
    assert len(os.listdir(spawned)) == kill9s + EXTRA_RESPAWNS + 1
    assert multiprocessing.active_children() == []


def test_hung_worker_times_out_and_is_killed(tmp_path, monkeypatch):
    def hanging(root):
        time.sleep(3600)

    monkeypatch.setattr(supervised, "run_worker", hanging)
    with pytest.raises(TimeoutError):
        run_durable_campaign(
            seed=1, n_images=4, durable_dir=str(tmp_path / "state"),
            kill9s=1, timeout_s=0.5,
        )
    assert multiprocessing.active_children() == []
