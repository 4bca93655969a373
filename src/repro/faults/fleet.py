"""Fleet-scale chaos campaigns: a resumable cell orchestrator.

One *cell* is a single seeded chaos run (:func:`repro.faults.campaign.run_chaos_campaign`)
at one point of the campaign grid -- the cross product of

    seed x fault class x intensity x supervision policy x shard count.

Policies are named from the one table the engine owns
(:data:`repro.faults.campaign.POLICIES`), and a cell's result is the
engine's own :meth:`~repro.faults.campaign.CampaignResult.record`.

The orchestrator fans hundreds of cells out across a pool of worker
processes, reaping crashed or hung workers, retrying failed cells with
backoff, and quarantining cells that keep failing.  Every artifact on
disk is an atomic, checksummed JSON document
(:func:`repro.recovery.durable.write_checksummed_json` -- the same
crash-consistency machinery the exactly-once recovery store uses), so
a ``kill -9`` of the orchestrator itself never leaves a torn file:

``DIR/campaign.json``
    The campaign manifest: the full grid configuration plus its
    canonical digest.  Written once; resume refuses a different config.
``DIR/refcache/s<seed>-sh<shards>.json``
    The reference-frame cache: per-frame sha256 hashes and the set
    digest of the fault-free run, computed **once per (seed, platform)**
    and shared by every cell on that row -- cells never re-run the
    reference.
``DIR/cells/<cell_id>.json``
    One completed cell result.  Deterministic by construction (virtual
    time only, no wall-clock fields), bound to the manifest by the
    config digest.
``DIR/cells/<cell_id>.quarantine.json``
    A cell the orchestrator gave up on after ``max_cell_attempts``
    (diagnostic only; resume retries quarantined cells afresh).
``DIR/aggregate.json``
    The campaign aggregate: every cell result in grid order, in
    canonical JSON.  Because cells are deterministic and the layout is
    canonical, an interrupted campaign that is resumed produces a
    **byte-identical** aggregate to an uninterrupted one -- the property
    the SIGKILL tests pin.

Resume (:func:`run_fleet_campaign` with ``resume=True``, or the
``repro campaign resume`` CLI) re-scans ``cells/``, keeps every valid
result whose digest matches the manifest, and executes only the missing
cells.  The decision-support layer (:mod:`repro.faults.decision`) reads
the aggregate and renders the Pareto frontier of supervision policies.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.campaign import (
    _IDCTS,
    DEADLINE_US,
    POLICIES,
    build_campaign_plan,
    draw_receive_counts,
    reference_oracle,
    run_chaos_campaign,
)
from repro.faults.plan import CRASH, DROP, OVERFLOW, FaultPlan
from repro.mjpeg.components import BATCHES_PER_IMAGE
from repro.mjpeg.stream import generate_stream
from repro.recovery.durable import (
    DurableError,
    atomic_write_bytes,
    config_digest,
    read_checksummed_json,
    write_checksummed_json,
)

MANIFEST_NAME = "campaign.json"
AGGREGATE_NAME = "aggregate.json"
CELLS_DIR = "cells"
REFCACHE_DIR = "refcache"

#: Fault classes a cell can draw from the grid.  Each is a deterministic
#: plan template parameterized by (seed, intensity); ``mixed`` is the
#: legacy combined campaign plan (crashes + drops + duplicates).
FAULT_CLASSES = ("crash", "drop", "duplicate", "stall", "mixed")
INTENSITIES = ("light", "heavy")


class FleetError(ValueError):
    """An ill-formed fleet campaign configuration or directory."""


# --------------------------------------------------------------------------
# Grid: configuration and cells
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    """The full campaign grid, declaratively.

    The grid is the cross product of every axis; its canonical digest
    (:func:`repro.recovery.durable.config_digest` over :meth:`to_dict`)
    binds manifests, cell results and the aggregate together, so a
    resume against a *different* configuration is an error rather than a
    silently mixed campaign.
    """

    seeds: Tuple[int, ...]
    fault_classes: Tuple[str, ...] = FAULT_CLASSES
    intensities: Tuple[str, ...] = INTENSITIES
    policies: Tuple[str, ...] = ("restart", "degrade", "halt", "recover")
    shard_counts: Tuple[int, ...] = (1, 2)
    n_images: int = 4
    deadline_us: int = DEADLINE_US

    def __post_init__(self) -> None:
        if not self.seeds:
            raise FleetError("campaign needs at least one seed")
        for axis, singular, values, known in (
            ("fault_classes", "fault class", self.fault_classes, FAULT_CLASSES),
            ("intensities", "intensity", self.intensities, INTENSITIES),
            ("policies", "policy", self.policies, tuple(POLICIES)),
        ):
            if not values:
                raise FleetError(f"campaign axis {axis} is empty")
            for value in values:
                if value not in known:
                    raise FleetError(
                        f"unknown {singular} {value!r}; expected one of {known}"
                    )
            if len(set(values)) != len(values):
                raise FleetError(f"duplicate entries on campaign axis {axis}")
        if len(set(self.seeds)) != len(self.seeds):
            raise FleetError("duplicate campaign seeds")
        for shards in self.shard_counts:
            if shards < 1:
                raise FleetError(f"shard count must be >= 1, got {shards}")
        if len(set(self.shard_counts)) != len(self.shard_counts):
            raise FleetError("duplicate shard counts")
        if self.n_images < 3:
            raise FleetError(f"campaign needs at least 3 images, got {self.n_images}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seeds": list(self.seeds),
            "fault_classes": list(self.fault_classes),
            "intensities": list(self.intensities),
            "policies": list(self.policies),
            "shard_counts": list(self.shard_counts),
            "n_images": self.n_images,
            "deadline_us": self.deadline_us,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CampaignConfig":
        return CampaignConfig(
            seeds=tuple(data["seeds"]),
            fault_classes=tuple(data["fault_classes"]),
            intensities=tuple(data["intensities"]),
            policies=tuple(data["policies"]),
            shard_counts=tuple(data["shard_counts"]),
            n_images=int(data["n_images"]),
            deadline_us=int(data["deadline_us"]),
        )

    def digest(self) -> str:
        return config_digest(self.to_dict())


@dataclass(frozen=True)
class CellSpec:
    """One point of the campaign grid."""

    index: int
    seed: int
    fault_class: str
    intensity: str
    policy: str
    shards: int
    n_images: int

    @property
    def cell_id(self) -> str:
        """Stable, human-greppable identifier (also the result filename)."""
        return (
            f"c{self.index:05d}-s{self.seed}-{self.fault_class}."
            f"{self.intensity}-{self.policy}-sh{self.shards}"
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "index": self.index,
            "seed": self.seed,
            "fault_class": self.fault_class,
            "intensity": self.intensity,
            "policy": self.policy,
            "shards": self.shards,
            "n_images": self.n_images,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CellSpec":
        return CellSpec(
            index=int(data["index"]),
            seed=int(data["seed"]),
            fault_class=data["fault_class"],
            intensity=data["intensity"],
            policy=data["policy"],
            shards=int(data["shards"]),
            n_images=int(data["n_images"]),
        )


def build_grid(config: CampaignConfig) -> List[CellSpec]:
    """Enumerate the campaign cells in canonical order.

    The order (seed, fault class, intensity, policy, shards) is part of
    the format: cell indices -- and therefore cell ids, result filenames
    and the aggregate layout -- are derived from it.  Combinations a
    policy cannot run (``recover`` on the sharded platform) are skipped,
    not errors, so the cross product stays declarative.
    """
    cells: List[CellSpec] = []
    index = 0
    for seed in config.seeds:
        for fault_class in config.fault_classes:
            for intensity in config.intensities:
                for policy in config.policies:
                    profile = POLICIES[policy]
                    for shards in config.shard_counts:
                        if shards > 1 and not profile.sharded_ok:
                            continue
                        cells.append(
                            CellSpec(
                                index=index,
                                seed=seed,
                                fault_class=fault_class,
                                intensity=intensity,
                                policy=policy,
                                shards=shards,
                                n_images=config.n_images,
                            )
                        )
                        index += 1
    if not cells:
        raise FleetError(
            "the campaign grid is empty (every combination was skipped); "
            "add a shard count of 1 or a policy other than 'recover'"
        )
    return cells


def build_cell_plan(
    seed: int, n_images: int, fault_class: str, intensity: str
) -> FaultPlan:
    """The deterministic fault plan of one cell.

    Receive-count triggers are drawn from seeded named streams
    (``fleet.<class>``), disjoint from the legacy ``campaign.*`` streams,
    so fleet schedules never perturb existing single-campaign seeds.
    """
    if fault_class not in FAULT_CLASSES:
        raise FleetError(
            f"unknown fault class {fault_class!r}; expected one of {FAULT_CLASSES}"
        )
    if intensity not in INTENSITIES:
        raise FleetError(
            f"unknown intensity {intensity!r}; expected one of {INTENSITIES}"
        )
    heavy = intensity == "heavy"
    per_idct = (n_images - 1) * BATCHES_PER_IMAGE // len(_IDCTS)
    if per_idct < 4:
        raise FleetError("stream too short for the fleet fault schedules")
    plan = FaultPlan(seed)
    if fault_class == "crash":
        for component, on_receive in draw_receive_counts(
            seed, "fleet.crash", 3 if heavy else 1, per_idct
        ):
            plan.crash(component, on_receive=on_receive)
    elif fault_class == "drop":
        plan.drop("IDCT_2", "idctReorder", probability=0.15 if heavy else 0.05)
        if heavy:
            plan.drop("IDCT_3", "idctReorder", probability=0.10)
    elif fault_class == "duplicate":
        plan.duplicate("IDCT_1", "idctReorder", probability=0.20 if heavy else 0.05)
        if heavy:
            plan.duplicate("IDCT_3", "idctReorder", probability=0.10)
    elif fault_class == "stall":
        for component, on_receive in draw_receive_counts(
            seed, "fleet.stall", 3 if heavy else 1, per_idct
        ):
            plan.stall(
                component,
                on_receive=on_receive,
                delay_ns=2_500_000 if heavy else 1_000_000,
            )
    else:  # mixed: the legacy combined campaign schedule
        return build_campaign_plan(
            seed,
            n_images,
            drop_rate=0.08 if heavy else 0.03,
            crashes=3 if heavy else 1,
            duplicate_rate=0.08 if heavy else 0.03,
        ).validate()
    return plan.validate()


# --------------------------------------------------------------------------
# Reference-frame cache
# --------------------------------------------------------------------------


def reference_key(seed: int, shards: int) -> str:
    return f"s{seed}-sh{shards}"


def reference_path(root: str, seed: int, shards: int) -> str:
    return os.path.join(root, REFCACHE_DIR, f"{reference_key(seed, shards)}.json")


def build_reference_entry(seed: int, shards: int, n_images: int) -> Dict[str, Any]:
    """Run the fault-free reference once and distil it into the cacheable
    oracle: per-frame sha256 hashes plus the order-independent set digest."""
    stream = generate_stream(n_images, 96, 96, quality=75, seed=seed)
    hashes, digest = reference_oracle(stream, shards)
    return {
        "seed": seed,
        "shards": shards,
        "n_images": n_images,
        "hashes": {str(index): frame for index, frame in hashes.items()},
        "digest": digest,
    }


def load_reference(root: str, seed: int, shards: int, n_images: int) -> Dict[str, Any]:
    """Read one reference-cache entry, verifying it matches the campaign."""
    path = reference_path(root, seed, shards)
    body = read_checksummed_json(path)
    if body.get("n_images") != n_images or body.get("seed") != seed:
        raise DurableError(
            f"{path}: reference cache is for seed={body.get('seed')} "
            f"n_images={body.get('n_images')}, campaign wants seed={seed} "
            f"n_images={n_images}"
        )
    return body


def ensure_reference_cache(
    root: str, grid: List[CellSpec], progress: Optional[Callable[[str], None]] = None
) -> int:
    """Compute every missing/invalid reference entry the grid needs.
    Returns the number of entries (re)built; valid entries are reused."""
    os.makedirs(os.path.join(root, REFCACHE_DIR), exist_ok=True)
    needed = sorted({(cell.seed, cell.shards, cell.n_images) for cell in grid})
    built = 0
    for seed, shards, n_images in needed:
        path = reference_path(root, seed, shards)
        if os.path.exists(path):
            try:
                load_reference(root, seed, shards, n_images)
                continue  # valid cache hit
            except DurableError:
                pass  # torn/mismatched: rebuild below
        if progress:
            progress(f"reference: computing {reference_key(seed, shards)}")
        entry = build_reference_entry(seed, shards, n_images)
        write_checksummed_json(path, entry, dir_sync=False)
        built += 1
    return built


# --------------------------------------------------------------------------
# Cell execution (worker side)
# --------------------------------------------------------------------------


def cell_result_path(root: str, cell_id: str) -> str:
    return os.path.join(root, CELLS_DIR, f"{cell_id}.json")


def quarantine_path(root: str, cell_id: str) -> str:
    return os.path.join(root, CELLS_DIR, f"{cell_id}.quarantine.json")


def execute_cell(root: str, cell: CellSpec, deadline_us: int) -> Dict[str, Any]:
    """Run one cell against the cached reference; returns the
    deterministic result record (virtual-time metrics only -- anything
    wall-clock would break the byte-identical aggregate)."""
    profile = POLICIES[cell.policy]
    reference = load_reference(root, cell.seed, cell.shards, cell.n_images)
    hashes = {int(index): digest for index, digest in reference["hashes"].items()}
    plan = build_cell_plan(cell.seed, cell.n_images, cell.fault_class, cell.intensity)
    oracle = profile.oracle
    if oracle == "progress" and any(
        s.kind in (DROP, OVERFLOW, CRASH) for s in plan.specs
    ):
        # Message-destroying faults (drops, overflows, and crashes --
        # which consume the in-flight message that triggered them) can
        # legitimately wipe out every frame of a short stream; demanding
        # progress there would blame the supervision policy for loss only
        # exactly-once recovery can undo.  The claim drops to "whatever
        # survived is bit-exact".  Stall/delay/duplicate plans keep the
        # full progress demand: nothing is lost, so everything must come
        # out.
        oracle = "survivors"
    return run_chaos_campaign(
        seed=cell.seed,
        n_images=cell.n_images,
        deadline_us=deadline_us,
        plan=plan,
        policy=cell.policy,
        shards=cell.shards,
        oracle=oracle,
        reference_hashes=hashes,
        reference_digest=reference["digest"],
    ).record()


def _cell_worker(root: str, cell_dict: Dict[str, Any], settings: Dict[str, Any]) -> None:
    """Worker-process entry point: run the cell, publish its result
    atomically.  A crash or SIGKILL at any point leaves either no file or
    a complete checksummed one -- never a torn result."""
    cell = CellSpec.from_dict(cell_dict)
    result = execute_cell(root, cell, settings["deadline_us"])
    write_checksummed_json(
        cell_result_path(root, cell.cell_id),
        {
            "format": 1,
            "campaign": settings["config_digest"],
            "cell": cell.describe(),
            "result": result,
        },
        dir_sync=False,
    )


# --------------------------------------------------------------------------
# Orchestrator (parent side)
# --------------------------------------------------------------------------


@dataclass
class FleetResult:
    """What one :func:`run_fleet_campaign` invocation did."""

    root: str
    n_cells: int
    #: Cells executed by *this* invocation.
    executed: int = 0
    #: Valid results found on disk before scheduling (resume hits).
    reused: int = 0
    #: Worker attempts that failed (timeout, crash, invalid result).
    failed_attempts: int = 0
    #: Reference-cache entries this invocation had to compute.
    references_built: int = 0
    quarantined: List[str] = field(default_factory=list)
    cells_ok: int = 0
    cells_failed: List[str] = field(default_factory=list)
    aggregate_path: str = ""
    aggregate_sha256: str = ""
    elapsed_s: float = 0.0

    @property
    def completed(self) -> int:
        return self.reused + self.executed

    @property
    def ok(self) -> bool:
        """Every cell completed and passed its oracle."""
        return (
            self.completed == self.n_cells
            and not self.quarantined
            and not self.cells_failed
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "n_cells": self.n_cells,
            "executed": self.executed,
            "reused": self.reused,
            "completed": self.completed,
            "failed_attempts": self.failed_attempts,
            "references_built": self.references_built,
            "quarantined": self.quarantined,
            "cells_ok": self.cells_ok,
            "cells_failed": self.cells_failed,
            "aggregate_sha256": self.aggregate_sha256,
            "elapsed_s": round(self.elapsed_s, 3),
            "ok": self.ok,
        }


def _load_cell_result(
    root: str, cell: CellSpec, digest: str
) -> Optional[Dict[str, Any]]:
    """A valid on-disk result for this cell under this campaign, or None."""
    path = cell_result_path(root, cell.cell_id)
    if not os.path.exists(path):
        return None
    try:
        body = read_checksummed_json(path)
    except DurableError:
        return None
    if (
        not isinstance(body, dict)
        or body.get("campaign") != digest
        or body.get("cell", {}).get("cell_id") != cell.cell_id
    ):
        return None
    return body


def _kill_worker(proc) -> None:
    proc.terminate()
    proc.join(timeout=1.0)
    if proc.is_alive():
        proc.kill()
        proc.join()


def write_manifest(root: str, config: CampaignConfig) -> str:
    """Publish the campaign manifest; returns the config digest."""
    digest = config.digest()
    write_checksummed_json(
        os.path.join(root, MANIFEST_NAME),
        {"format": 1, "config": config.to_dict(), "config_digest": digest},
    )
    return digest


def load_manifest(root: str) -> CampaignConfig:
    """Read and verify the campaign manifest of an existing directory."""
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FleetError(
            f"{root}: not a campaign directory (no {MANIFEST_NAME}); "
            f"start one with 'repro campaign run'"
        )
    body = read_checksummed_json(path)
    config = CampaignConfig.from_dict(body["config"])
    if body.get("config_digest") != config.digest():
        raise DurableError(f"{path}: manifest digest does not match its config")
    return config


def build_aggregate(
    config: CampaignConfig,
    grid: List[CellSpec],
    results: Dict[str, Dict[str, Any]],
    quarantined: List[str],
) -> Dict[str, Any]:
    """The canonical aggregate body: completed cells in grid order."""
    cells = [
        {"cell": results[cell.cell_id]["cell"], "result": results[cell.cell_id]["result"]}
        for cell in grid
        if cell.cell_id in results
    ]
    cells_failed = sorted(
        entry["cell"]["cell_id"] for entry in cells if not entry["result"]["ok"]
    )
    ok = (
        len(cells) == len(grid)
        and not quarantined
        and not cells_failed
    )
    return {
        "format": 1,
        "config": config.to_dict(),
        "config_digest": config.digest(),
        "n_cells": len(grid),
        "cells": cells,
        "quarantined": sorted(quarantined),
        "summary": {
            "completed": len(cells),
            "cells_ok": sum(1 for entry in cells if entry["result"]["ok"]),
            "cells_failed": cells_failed,
            "ok": ok,
        },
    }


def write_aggregate(root: str, body: Dict[str, Any]) -> str:
    """Publish the aggregate atomically; returns the sha256 of the file
    bytes (the byte-identity witness of the resume tests)."""
    data = json.dumps(body, sort_keys=True, indent=2).encode() + b"\n"
    atomic_write_bytes(os.path.join(root, AGGREGATE_NAME), data, dir_sync=False)
    return hashlib.sha256(data).hexdigest()


def load_aggregate(root: str) -> Dict[str, Any]:
    path = os.path.join(root, AGGREGATE_NAME)
    if not os.path.exists(path):
        raise FleetError(
            f"{root}: no {AGGREGATE_NAME} yet; run or resume the campaign first"
        )
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_fleet_campaign(
    root: str,
    config: Optional[CampaignConfig] = None,
    resume: bool = False,
    max_workers: Optional[int] = None,
    cell_timeout_s: float = 120.0,
    max_cell_attempts: int = 3,
    retry_backoff_s: float = 0.25,
    poll_s: float = 0.02,
    progress: Optional[Callable[[str], None]] = None,
    worker: Optional[Callable[..., None]] = None,
) -> FleetResult:
    """Run (or resume) a fleet campaign rooted at ``root``.

    Fresh run: pass ``config``; the manifest is written first, then the
    reference cache, then the cells.  Resume: pass ``resume=True`` (with
    or without ``config`` -- when given it must match the manifest);
    valid cell results on disk are kept, only missing cells execute.
    Either way the aggregate is (re)written at the end, and -- cells
    being deterministic -- its bytes do not depend on which invocation
    computed which cell.

    ``worker`` overrides the cell entry point (tests substitute hanging
    or crashing workers to exercise the reaper and quarantine paths).
    """
    root = os.path.abspath(root)
    manifest_exists = os.path.exists(os.path.join(root, MANIFEST_NAME))
    if manifest_exists:
        existing = load_manifest(root)
        if config is not None and config.digest() != existing.digest():
            raise FleetError(
                f"{root}: campaign manifest holds a different configuration; "
                f"resume without overriding it, or start a fresh directory"
            )
        config = existing
    else:
        if config is None:
            raise FleetError(
                f"{root}: no campaign to {'resume' if resume else 'run'} here "
                f"(missing {MANIFEST_NAME}) and no configuration given"
            )
        os.makedirs(root, exist_ok=True)
        write_manifest(root, config)

    digest = config.digest()
    grid = build_grid(config)
    os.makedirs(os.path.join(root, CELLS_DIR), exist_ok=True)
    started = time.monotonic()
    result = FleetResult(root=root, n_cells=len(grid))
    result.references_built = ensure_reference_cache(root, grid, progress)

    results: Dict[str, Dict[str, Any]] = {}
    pending: deque = deque()
    for cell in grid:
        body = _load_cell_result(root, cell, digest)
        if body is not None:
            results[cell.cell_id] = body
            result.reused += 1
        else:
            pending.append((cell, 0, 0.0))  # (cell, attempts so far, not-before)
    if progress:
        progress(
            f"campaign: {len(grid)} cells, {result.reused} already done, "
            f"{len(pending)} to run"
        )

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-forking platforms
        ctx = multiprocessing.get_context()
    if worker is None:
        worker = _cell_worker
    if max_workers is None:
        max_workers = max(1, min(8, os.cpu_count() or 2))
    settings = {"config_digest": digest, "deadline_us": config.deadline_us}

    running: Dict[str, tuple] = {}  # cell_id -> (proc, cell, attempts, deadline)
    quarantined: Dict[str, CellSpec] = {}
    while pending or running:
        now = time.monotonic()
        while pending and len(running) < max_workers:
            cell, attempts, not_before = pending[0]
            if not_before > now:
                break  # backoffs are uniform; head-of-line wait is fine
            pending.popleft()
            proc = ctx.Process(
                target=worker, args=(root, cell.describe(), settings)
            )
            proc.start()
            running[cell.cell_id] = (proc, cell, attempts, now + cell_timeout_s)

        finished: List[tuple] = []
        for cell_id, (proc, cell, attempts, deadline) in list(running.items()):
            if proc.is_alive():
                if time.monotonic() <= deadline:
                    continue
                _kill_worker(proc)  # hung worker: reap it
                reason = f"timed out after {cell_timeout_s:g}s"
            else:
                proc.join()
                reason = f"worker exited with code {proc.exitcode}"
            del running[cell_id]
            finished.append((cell, attempts, reason))

        for cell, attempts, reason in finished:
            body = _load_cell_result(root, cell, digest)
            if body is not None:
                results[cell.cell_id] = body
                result.executed += 1
                qpath = quarantine_path(root, cell.cell_id)
                if os.path.exists(qpath):
                    os.unlink(qpath)  # the cell recovered on a later pass
                if progress:
                    state = "ok" if body["result"]["ok"] else "FAIL"
                    progress(
                        f"cell {len(results)}/{len(grid)} {cell.cell_id}: {state}"
                    )
                continue
            # No valid result: the attempt failed (crash, hang, torn write).
            attempts += 1
            result.failed_attempts += 1
            if attempts >= max_cell_attempts:
                quarantined[cell.cell_id] = cell
                write_checksummed_json(
                    quarantine_path(root, cell.cell_id),
                    {
                        "cell": cell.describe(),
                        "attempts": attempts,
                        "last_error": reason,
                    },
                    dir_sync=False,
                )
                if progress:
                    progress(
                        f"cell {cell.cell_id}: QUARANTINED after "
                        f"{attempts} attempts ({reason})"
                    )
            else:
                backoff = retry_backoff_s * (2 ** (attempts - 1))
                pending.append((cell, attempts, time.monotonic() + backoff))
                if progress:
                    progress(
                        f"cell {cell.cell_id}: attempt {attempts} failed "
                        f"({reason}); retrying in {backoff:g}s"
                    )
        if pending or running:
            time.sleep(poll_s)

    result.quarantined = sorted(quarantined)
    aggregate = build_aggregate(config, grid, results, result.quarantined)
    result.cells_ok = aggregate["summary"]["cells_ok"]
    result.cells_failed = aggregate["summary"]["cells_failed"]
    result.aggregate_sha256 = write_aggregate(root, aggregate)
    result.aggregate_path = os.path.join(root, AGGREGATE_NAME)
    result.elapsed_s = time.monotonic() - started
    if progress:
        progress(
            f"aggregate: {result.aggregate_sha256[:16]}... "
            f"({result.cells_ok}/{result.n_cells} ok)"
        )
    return result
