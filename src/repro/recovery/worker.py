"""Durable-campaign worker: the component-hosting OS process.

:func:`run_worker` is the body of the child process that
:func:`repro.recovery.supervised.run_durable_campaign` forks.  It runs
one incarnation of the MJPEG SMP assembly on the native runtime (real
threads -- the paper's "an EMBera application is a Linux user process"),
with:

- the seed-derived in-process fault plan (crashes / drops / duplicates;
  any process-level ``kill9`` specs are stripped -- the supervising
  parent executes those against *this* process),
- the ``recover`` supervision profile and a
  :class:`~repro.recovery.RecoveryManager` layered over the
  :class:`~repro.recovery.durable.DurableStore` in ``<dir>``,
- completed frames externalized through a
  :class:`~repro.recovery.durable.FrameStore` (``<dir>/frames``), which
  doubles as the parent's progress signal and the digest oracle's input.

The process expects to be SIGKILLed at any instant.  On (re)spawn it
reads ``<dir>/CONFIG.json``, rebuilds the identical application, and
``RecoveryManager.install`` cold-restores whatever consistent cut the
previous incarnation committed.  A run that drains the stream writes
``<dir>/RESULT.json`` (atomically) -- its existence is the completion
signal; everything else about this process is disposable.
"""

from __future__ import annotations

import json
import os

from repro.faults.campaign import build_campaign_plan
from repro.faults.plan import split_process_faults
from repro.mjpeg.components import build_smp_assembly
from repro.mjpeg.stream import generate_stream
from repro.recovery.durable import DurableStore, FrameStore, atomic_write_bytes
from repro.runtime.build import RunConfig, build_run

CONFIG_NAME = "CONFIG.json"
RESULT_NAME = "RESULT.json"
FRAMES_DIR = "frames"


def run_worker(root: str) -> dict:
    """One incarnation of the durable campaign in directory ``root``."""
    with open(os.path.join(root, CONFIG_NAME)) as fh:
        config = json.load(fh)

    stream = generate_stream(
        config["n_images"],
        config["height"],
        config["width"],
        quality=config["quality"],
        seed=config["seed"],
    )
    frames = FrameStore(os.path.join(root, FRAMES_DIR))
    app = build_smp_assembly(
        stream,
        use_stored_coefficients=True,
        keep_frames=False,
        with_observer=False,
        drop_incomplete=False,
        frame_sink=frames.save,
    )
    plan = build_campaign_plan(
        config["seed"],
        config["n_images"],
        drop_rate=config["drop_rate"],
        crashes=config["crashes"],
        kill9s=config["kill9s"],
    )
    inproc, _process_specs = split_process_faults(plan)
    store = DurableStore(root, config=config)
    runtime = build_run(
        RunConfig(
            "native", faults=inproc, policy="recover", seed=config["seed"], durable=store
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
    return result
