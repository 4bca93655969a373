"""The kill-9 campaign: SIGKILL a live component process, restore it
from disk, prove nothing was lost.

:func:`run_durable_campaign` is the process-level counterpart of
:func:`repro.faults.campaign.run_chaos_campaign`: the same seeded chaos
campaign (in-process crashes, drops, duplicates) runs in a **child OS
process** (:func:`run_worker`) whose recovery state lives in a
:class:`~repro.recovery.durable.DurableStore`.  The child is supervised
by :func:`repro.faults.fleet.supervise`, the supervisor of fleet cells,
with no backoff between incarnations and one hook of this module: once
the next of :func:`draw_kill_thresholds`' decoded-frame counts is
durable on disk, the parent SIGKILLs the real pid -- no warning, no
cleanup.  The child draws the same thresholds from its ``CONFIG.json``
and, once its frames on disk reach the next one above the count it
started from, blocks in its frame sink until that SIGKILL arrives, so
no scheduled kill can be outrun by a child that finishes between two
polls.  Each respawn cold-restores from the WAL + checkpoints.  The
child writes nothing of its own; a traceback goes to the inherited
stderr.

The oracle is the same sha256 frame-set digest as ``repro faults
--recover``: after every kill and restore, the complete frame set on
disk must be bit-identical to a fault-free reference run.  The parent
computes the reference itself (simulated runtime, no shared state with
the child) and hashes the frames it reads back from disk -- nothing the
child claims is trusted.

Kill instants are scheduled in *progress* units (frames durable on
disk), not wall-clock, so every seed kills at a reproducible point in
the stream even though thread scheduling makes the exact message-level
instant nondeterministic; the digest is invariant either way.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.campaign import build_plan, campaign_stream, reference_oracle
from repro.faults.fleet import supervise
from repro.mjpeg.components import build_smp_assembly, frames_digest
from repro.recovery.durable import DurableStore, FrameStore, atomic_write_bytes
from repro.runtime.build import RunConfig, build_run
from repro.sim.rng import RngRegistry

#: Extra respawns tolerated beyond the scheduled kills (a child that
#: dies on its own -- e.g. a deadline timeout racing teardown -- gets
#: another chance to finish from its durable state).
EXTRA_RESPAWNS = 3

CONFIG_NAME = "CONFIG.json"
RESULT_NAME = "RESULT.json"
FRAMES_DIR = "frames"


@dataclass
class DurableCampaignResult:
    """Outcome of one supervised kill-9 campaign."""

    seed: int
    n_images: int
    durable_dir: str
    kills: int
    kills_scheduled: int
    spawns: int
    frames_expected: int
    frames_delivered: int
    frames_digest: str
    reference_frames_digest: str
    elapsed_s: float
    worker: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Exactly-once across real process death: every scheduled
        kill happened, and the complete frame set came back from disk,
        bit-identical to the reference."""
        return (
            self.kills == self.kills_scheduled
            and self.frames_delivered == self.frames_expected
            and self.frames_digest == self.reference_frames_digest
        )

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly condensed result (CLI / CI output)."""
        return {
            "seed": self.seed,
            "n_images": self.n_images,
            "durable_dir": self.durable_dir,
            "kills": self.kills,
            "kills_scheduled": self.kills_scheduled,
            "spawns": self.spawns,
            "frames_expected": self.frames_expected,
            "frames_delivered": self.frames_delivered,
            "frames_digest": self.frames_digest,
            "reference_frames_digest": self.reference_frames_digest,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "worker": self.worker,
        }


def draw_kill_thresholds(seed: int, n_images: int, kill9s: int) -> List[int]:
    """The ``kill9s`` distinct durable-frame counts, ascending, at which
    the parent SIGKILLs the child: drawn from the ``campaign.kill9``
    stream of ``seed`` (disjoint from the in-process plan's streams),
    each in ``[1, n_images - 1)`` so every kill lands before the last
    of the stream's ``n_images - 1`` frames."""
    if n_images < 3:
        raise ValueError(f"campaign needs at least 3 images, got {n_images}")
    if kill9s >= n_images - 1:
        raise ValueError(
            f"at most {n_images - 2} kill9 faults fit a {n_images}-image stream"
        )
    rng = RngRegistry(seed).stream("campaign.kill9")
    thresholds: set = set()
    while len(thresholds) < kill9s:
        thresholds.add(int(rng.integers(1, n_images - 1)))
    return sorted(thresholds)


def run_worker(root: str) -> None:
    """One incarnation of the durable campaign in directory ``root``:
    the body of the child process.

    It runs the MJPEG SMP assembly on the native runtime (real threads
    -- the paper's "an EMBera application is a Linux user process")
    with the seed's in-process fault plan, the ``recover`` supervision
    profile and a :class:`~repro.recovery.RecoveryManager` layered over
    the :class:`~repro.recovery.durable.DurableStore` in ``root``.
    Completed frames go to a :class:`~repro.recovery.durable.FrameStore`
    (``root/frames``), which is also the parent's progress signal and
    the oracle's input.  The process expects to be SIGKILLed at any
    instant: on (re)spawn it reads ``root/CONFIG.json``, rebuilds the
    identical application and cold-restores whatever consistent cut the
    previous incarnation committed.  Once its frames on disk reach the
    next kill threshold above the count it started from, the frame sink
    blocks until the parent's SIGKILL ends the process.  A run that
    drains the stream writes ``root/RESULT.json`` atomically -- its
    existence is the completion signal.
    """
    with open(os.path.join(root, CONFIG_NAME)) as fh:
        config = json.load(fh)
    seed, n_images = config["seed"], config["n_images"]
    frames = FrameStore(os.path.join(root, FRAMES_DIR))
    start = frames.count()
    kill_at = next(
        (t for t in draw_kill_thresholds(seed, n_images, config["kill9s"]) if t > start),
        None,
    )

    def save_then_await_kill(index: int, image) -> None:
        frames.save(index, image)
        if kill_at is not None and frames.count() >= kill_at:
            while True:  # the parent's SIGKILL ends this process
                time.sleep(1.0)

    app = build_smp_assembly(
        campaign_stream(seed, n_images),
        use_stored_coefficients=True,
        keep_frames=False,
        with_observer=False,
        drop_incomplete=False,
        frame_sink=save_then_await_kill,
    )
    runtime = build_run(
        RunConfig(
            "native",
            faults=build_plan(seed, n_images, "campaign"),
            policy="recover",
            seed=seed,
            durable=DurableStore(root, config=config),
        ),
        app,
    )
    runtime.run()
    runtime.stop()

    result = {
        "pid": os.getpid(),
        "frames_on_disk": frames.count(),
        "injected": runtime.injector.counts(),
        "supervised_restarts": len(runtime.supervisor.events),
        "recovery": runtime.recovery.report(),
    }
    runtime.recovery.close()
    atomic_write_bytes(
        os.path.join(root, RESULT_NAME),
        json.dumps(result, indent=2, sort_keys=True).encode(),
    )


def run_durable_campaign(
    seed: int = 0,
    n_images: int = 10,
    durable_dir: Optional[str] = None,
    kill9s: int = 1,
    timeout_s: float = 600.0,
) -> DurableCampaignResult:
    """Run one seeded chaos campaign in a forked child process,
    SIGKILLing it at :func:`draw_kill_thresholds`' frame counts; see
    the module doc.

    The child gets ``kill9s + EXTRA_RESPAWNS + 1`` spawns; past that the
    campaign raises :class:`RuntimeError`.  An incarnation alive after
    ``timeout_s`` is reaped and the campaign raises
    :class:`TimeoutError`.
    """
    pending_kills = draw_kill_thresholds(seed, n_images, kill9s)
    if durable_dir is None:
        durable_dir = tempfile.mkdtemp(prefix=f"repro-durable-{seed}-")
    os.makedirs(durable_dir, exist_ok=True)

    reference_hashes, reference_digest = reference_oracle(campaign_stream(seed, n_images))
    config = {"seed": seed, "n_images": n_images, "kill9s": kill9s}
    atomic_write_bytes(
        os.path.join(durable_dir, CONFIG_NAME),
        json.dumps(config, indent=2, sort_keys=True).encode(),
    )

    frames_store = FrameStore(os.path.join(durable_dir, FRAMES_DIR))
    result_path = os.path.join(durable_dir, RESULT_NAME)
    t0 = time.monotonic()
    kills = spawns = 0
    killing = done = False

    def kill_at_threshold(procs) -> None:
        nonlocal killing
        if not killing and pending_kills and frames_store.count() >= pending_kills[0]:
            procs[0].kill()
            killing = True

    def settle(_key, exitcode: Optional[int], attempts: int) -> bool:
        nonlocal kills, spawns, killing, done
        spawns = attempts
        if exitcode is None:
            raise TimeoutError(
                f"durable campaign (seed {seed}) worker exceeded {timeout_s}s"
            )
        if killing and exitcode == -signal.SIGKILL:
            kills += 1
            pending_kills.pop(0)
        killing = False
        # Done once the stream is drained and the result is durable;
        # any other exit respawns.
        done = exitcode == 0 and os.path.exists(result_path)
        return done

    supervise(
        [(durable_dir, (durable_dir,))],
        run_worker,
        settle,
        max_workers=1,
        timeout_s=timeout_s,
        max_attempts=kill9s + EXTRA_RESPAWNS + 1,
        backoff_s=0.0,
        poll=kill_at_threshold,
    )
    if not done:
        raise RuntimeError(
            f"durable campaign (seed {seed}) worker died "
            f"{spawns} times without completing"
        )

    delivered = frames_store.load_frames()
    with open(result_path) as fh:
        worker_result = json.load(fh)
    return DurableCampaignResult(
        seed=seed,
        n_images=n_images,
        durable_dir=durable_dir,
        kills=kills,
        kills_scheduled=kill9s,
        spawns=spawns,
        frames_expected=len(reference_hashes),
        frames_delivered=len(delivered),
        frames_digest=frames_digest(delivered),
        reference_frames_digest=reference_digest,
        elapsed_s=time.monotonic() - t0,
        worker=worker_result,
    )
