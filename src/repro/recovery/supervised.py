"""The kill-9 supervisor: SIGKILL a live component process, restore it
from disk, prove nothing was lost.

:func:`run_durable_campaign` is the process-level counterpart of
:func:`repro.faults.campaign.run_chaos_campaign`: the same seeded chaos
campaign (in-process crashes, drops, duplicates) runs in a **child OS
process** forked from this one (:func:`repro.recovery.worker.run_worker`,
hosted the way fleet cells are) whose recovery state lives in a
:class:`~repro.recovery.durable.DurableStore`, and this parent executes
the plan's ``kill9`` faults against the real pid -- SIGKILL, no warning,
no cleanup -- once the scheduled number of decoded frames is durable on
disk.  Each respawn cold-restores from the WAL + checkpoints.  The
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
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.campaign import build_campaign_plan, reference_oracle
from repro.mjpeg.components import frames_digest
from repro.mjpeg.stream import generate_stream
from repro.recovery.durable import FrameStore, atomic_write_bytes
from repro.recovery.worker import CONFIG_NAME, FRAMES_DIR, RESULT_NAME, run_worker

#: Extra respawns tolerated beyond the scheduled kills (a child that
#: dies on its own -- e.g. a deadline timeout racing teardown -- gets
#: another chance to finish from its durable state).
EXTRA_RESPAWNS = 3


@dataclass
class DurableCampaignResult:
    """Outcome of one supervised kill-9 campaign."""

    seed: int
    n_images: int
    durable_dir: str
    plan: List[Dict[str, Any]]
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
        """Exactly-once across real process death: the complete frame
        set came back from disk, bit-identical to the reference."""
        return (
            self.frames_delivered == self.frames_expected
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


#: How often the parent polls the child and the frame store, in seconds.
POLL_S = 0.005


def run_durable_campaign(
    seed: int = 0,
    n_images: int = 10,
    durable_dir: Optional[str] = None,
    drop_rate: float = 0.05,
    crashes: int = 3,
    kill9s: int = 1,
    fsync: str = "commit",
    timeout_s: float = 600.0,
) -> DurableCampaignResult:
    """Run one seeded chaos campaign in a forked child process,
    SIGKILLing it at the plan's scheduled frame counts; see module doc.
    """
    if durable_dir is None:
        durable_dir = tempfile.mkdtemp(prefix=f"repro-durable-{seed}-")
    os.makedirs(durable_dir, exist_ok=True)

    stream = generate_stream(n_images, 96, 96, quality=75, seed=seed)
    reference_hashes, reference_digest = reference_oracle(stream)

    config = {
        "seed": seed,
        "n_images": n_images,
        "width": 96,
        "height": 96,
        "quality": 75,
        "drop_rate": drop_rate,
        "crashes": crashes,
        "kill9s": kill9s,
        "fsync": fsync,
    }
    atomic_write_bytes(
        os.path.join(durable_dir, CONFIG_NAME),
        json.dumps(config, indent=2, sort_keys=True).encode(),
    )

    plan = build_campaign_plan(
        seed, n_images, drop_rate=drop_rate, crashes=crashes, kill9s=kill9s
    )
    pending_kills = sorted(
        (spec.after_frames for spec in plan.process_faults()), reverse=True
    )

    frames_store = FrameStore(os.path.join(durable_dir, FRAMES_DIR))
    result_path = os.path.join(durable_dir, RESULT_NAME)
    # Forked like a fleet cell; SIGKILL makes this POSIX-only anyway.
    ctx = multiprocessing.get_context("fork")

    t0 = time.monotonic()
    deadline = t0 + timeout_s
    respawn_budget = len(pending_kills) + EXTRA_RESPAWNS
    proc = None
    spawns = kills = 0
    try:
        while True:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"durable campaign (seed {seed}) exceeded {timeout_s}s"
                )
            if proc is None or not proc.is_alive():
                if proc is not None:
                    proc.join()
                    if proc.exitcode == 0 and os.path.exists(result_path):
                        break  # the stream is drained and the result is durable
                if spawns > respawn_budget:
                    raise RuntimeError(
                        f"durable campaign (seed {seed}) worker died "
                        f"{spawns} times without completing"
                    )
                proc = ctx.Process(target=run_worker, args=(durable_dir,))
                proc.start()
                spawns += 1
            if pending_kills and frames_store.count() >= pending_kills[-1]:
                proc.kill()
                proc.join()
                if proc.exitcode == -signal.SIGKILL:
                    kills += 1
                    pending_kills.pop()
                # else: the child finished first; the loop reaps it above.
            time.sleep(POLL_S)
    finally:
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join()

    delivered = frames_store.load_frames()
    with open(result_path) as fh:
        worker_result = json.load(fh)
    return DurableCampaignResult(
        seed=seed,
        n_images=n_images,
        durable_dir=durable_dir,
        plan=plan.describe(),
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
