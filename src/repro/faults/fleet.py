"""Fleet-scale chaos campaigns: a resumable cell orchestrator.

One *cell* is a single seeded chaos run (:func:`repro.faults.campaign.run_chaos_campaign`)
at one point of the campaign grid -- the cross product of

    seed x fault class x intensity x supervision policy x shard count.

Policies and plans are named from the tables the engine owns
(:data:`repro.faults.campaign.POLICIES`, and
:data:`~repro.faults.campaign.PLAN_TEMPLATES` under
``"<class>.<intensity>"``), and a cell's result is the engine's own
:meth:`~repro.faults.campaign.CampaignResult.record`.

The orchestrator fans hundreds of cells out across a pool of worker
processes through :func:`supervise`, which reaps crashed or hung
workers and retries failed cells with backoff; cells that keep failing
are quarantined.  :func:`supervise` is the repository's one supervisor
of campaign children: the kill-9 campaign
(:func:`repro.recovery.supervised.run_durable_campaign`) hands it its
component process, with no backoff and a hook that SIGKILLs the child
at scheduled frame counts.  Every artifact on
disk is an atomic, checksummed JSON document
(:func:`repro.recovery.durable.write_checksummed_json` -- the same
crash-consistency machinery the exactly-once recovery store uses), so
a ``kill -9`` of the orchestrator itself never leaves a torn file:

``DIR/campaign.json``
    The campaign manifest: the full grid configuration plus its
    canonical digest.  Written once; resume refuses a different config.
``DIR/refcache/s<seed>.json``
    The reference-frame cache: per-frame sha256 hashes and the set
    digest of the fault-free run, computed **once per seed** and shared
    by every cell of that seed, at every shard count (the decoded pixels
    are shard-count invariant) -- cells never re-run the reference.
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
import itertools
import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.campaign import (
    FAULT_CLASSES,
    INTENSITIES,
    POLICIES,
    build_plan,
    campaign_stream,
    reference_oracle,
    run_chaos_campaign,
)
from repro.faults.plan import CRASH, DROP, OVERFLOW
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
#: Backoff before a failed cell's first retry; it doubles per attempt.
RETRY_BACKOFF_S = 0.25
#: How often :func:`supervise` polls its children (fine enough for the
#: kill-9 campaign to SIGKILL its child between two frames).
POLL_S = 0.005


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
        if not self.shard_counts:
            raise FleetError("campaign axis shard_counts is empty")
        for shards in self.shard_counts:
            if shards < 1:
                raise FleetError(f"shard count must be >= 1, got {shards}")
        if len(set(self.shard_counts)) != len(self.shard_counts):
            raise FleetError("duplicate shard counts")
        if self.n_images < 3:
            raise FleetError(f"campaign needs at least 3 images, got {self.n_images}")

    def to_dict(self) -> Dict[str, Any]:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CampaignConfig":
        names = {spec.name for spec in fields(CampaignConfig)}
        unknown, missing = sorted(set(data) - names), sorted(names - set(data))
        if unknown or missing:
            raise FleetError(
                f"campaign config keys differ from this version's (unknown: "
                f"{unknown}, missing: {missing}); start a fresh directory"
            )
        return CampaignConfig(**{key: tuple(value) if isinstance(value, list) else value
                                 for key, value in data.items()})

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
        return {"cell_id": self.cell_id, **asdict(self)}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CellSpec":
        return CellSpec(**{spec.name: data[spec.name] for spec in fields(CellSpec)})


def build_grid(config: CampaignConfig) -> List[CellSpec]:
    """Enumerate the campaign cells in canonical order.

    The order (seed, fault class, intensity, policy, shards) is part of
    the format: cell indices -- and therefore cell ids, result filenames
    and the aggregate layout -- are derived from it.
    """
    axes = itertools.product(
        config.seeds, config.fault_classes, config.intensities, config.policies,
        config.shard_counts,
    )
    return [
        CellSpec(index, *point, n_images=config.n_images)
        for index, point in enumerate(axes)
    ]


# --------------------------------------------------------------------------
# Reference-frame cache
# --------------------------------------------------------------------------


def reference_key(seed: int) -> str:
    return f"s{seed}"


def reference_path(root: str, seed: int) -> str:
    return os.path.join(root, REFCACHE_DIR, f"{reference_key(seed)}.json")


def build_reference_entry(seed: int, n_images: int) -> Dict[str, Any]:
    """Run the fault-free reference once and distil it into the cacheable
    oracle: per-frame sha256 hashes plus the order-independent set digest."""
    hashes, digest = reference_oracle(campaign_stream(seed, n_images))
    return {
        "seed": seed,
        "n_images": n_images,
        "hashes": {str(index): frame for index, frame in hashes.items()},
        "digest": digest,
    }


def load_reference(root: str, seed: int, n_images: int) -> Dict[str, Any]:
    """Read one reference-cache entry, verifying it matches the campaign."""
    path = reference_path(root, seed)
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
    needed = sorted({(cell.seed, cell.n_images) for cell in grid})
    built = 0
    for seed, n_images in needed:
        path = reference_path(root, seed)
        if os.path.exists(path):
            try:
                load_reference(root, seed, n_images)
                continue  # valid cache hit
            except DurableError:
                pass  # torn/mismatched: rebuild below
        if progress:
            progress(f"reference: computing {reference_key(seed)}")
        entry = build_reference_entry(seed, n_images)
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


def execute_cell(root: str, cell: CellSpec) -> Dict[str, Any]:
    """Run one cell against the cached reference; returns the
    deterministic result record (virtual-time metrics only -- anything
    wall-clock would break the byte-identical aggregate)."""
    profile = POLICIES[cell.policy]
    reference = load_reference(root, cell.seed, cell.n_images)
    hashes = {int(index): digest for index, digest in reference["hashes"].items()}
    plan = build_plan(cell.seed, cell.n_images, f"{cell.fault_class}.{cell.intensity}")
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
    result = execute_cell(root, cell)
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
# Child-process supervisor
# --------------------------------------------------------------------------


def supervise(
    jobs: List[Tuple[Any, tuple]],
    target: Callable[..., None],
    settle: Callable[[Any, Optional[int], int], bool],
    *,
    max_workers: int,
    timeout_s: float,
    max_attempts: int,
    backoff_s: float,
    poll: Optional[Callable[[List[Any]], None]],
) -> None:
    """Run ``target(*args)`` once per ``(key, args)`` job, each in a
    forked child, at most ``max_workers`` at a time: the one supervisor
    of campaign children (fleet cells and the kill-9 campaign's
    component process).

    A child that exits is reaped; one still alive ``timeout_s`` after
    its start is terminated, then killed, then joined, and settled with
    exit code ``None``.  ``settle(key, exitcode, attempts)`` judges each
    ended attempt: True when the job is complete (its result is on
    disk); False queues it again after ``backoff_s * 2 ** (attempts -
    1)`` seconds unless ``attempts`` reached ``max_attempts``.
    ``settle`` may raise to end the run.  ``poll``, when given, is
    called with the live children once per poll.  No child outlives a
    return or a raise.
    """

    def reap(proc) -> None:
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join()

    # Fork: targets may be closures, and SIGKILL is POSIX-only anyway.
    ctx = multiprocessing.get_context("fork")
    # (key, args, attempts so far, not-before)
    pending = deque((key, args, 0, 0.0) for key, args in jobs)
    running: Dict[Any, tuple] = {}  # key -> (proc, args, attempts, deadline)
    try:
        while pending or running:
            now = time.monotonic()
            # Retries queue at the back; a head-of-line wait is fine.
            while pending and len(running) < max_workers and pending[0][3] <= now:
                key, args, attempts, _ = pending.popleft()
                proc = ctx.Process(target=target, args=args)
                proc.start()
                running[key] = (proc, args, attempts + 1, now + timeout_s)
            for key, (proc, args, attempts, deadline) in list(running.items()):
                if proc.is_alive():
                    if time.monotonic() <= deadline:
                        continue
                    reap(proc)  # hung child
                    exitcode = None
                else:
                    proc.join()
                    exitcode = proc.exitcode
                del running[key]
                if not settle(key, exitcode, attempts) and attempts < max_attempts:
                    not_before = time.monotonic() + backoff_s * 2 ** (attempts - 1)
                    pending.append((key, args, attempts, not_before))
            if poll is not None and running:
                poll([proc for proc, *_ in running.values()])
            if pending or running:
                time.sleep(POLL_S)
    finally:
        for proc, *_ in running.values():
            reap(proc)


# --------------------------------------------------------------------------
# Orchestrator (parent side)
# --------------------------------------------------------------------------


@dataclass
class FleetResult:
    """What one :func:`run_fleet_campaign` invocation did."""

    root: str
    n_cells: int
    #: Cells executed by *this* invocation.
    executed: int = field(default=0, init=False)
    #: Valid results found on disk before scheduling (resume hits).
    reused: int = field(default=0, init=False)
    #: Worker attempts that failed (timeout, crash, invalid result).
    failed_attempts: int = field(default=0, init=False)
    #: Reference-cache entries this invocation had to compute.
    references_built: int = field(default=0, init=False)
    quarantined: List[str] = field(default_factory=list, init=False)
    cells_ok: int = field(default=0, init=False)
    cells_failed: List[str] = field(default_factory=list, init=False)
    aggregate_path: str = field(default="", init=False)
    aggregate_sha256: str = field(default="", init=False)
    elapsed_s: float = field(default=0.0, init=False)

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
    pending: List[CellSpec] = []
    for cell in grid:
        body = _load_cell_result(root, cell, digest)
        if body is not None:
            results[cell.cell_id] = body
            result.reused += 1
        else:
            pending.append(cell)
    if progress:
        progress(
            f"campaign: {len(grid)} cells, {result.reused} already done, "
            f"{len(pending)} to run"
        )

    if max_workers is None:
        max_workers = max(1, min(8, os.cpu_count() or 2))
    settings = {"config_digest": digest}
    quarantined: List[str] = []

    def settle(cell: CellSpec, exitcode: Optional[int], attempts: int) -> bool:
        body = _load_cell_result(root, cell, digest)
        if body is not None:
            results[cell.cell_id] = body
            result.executed += 1
            qpath = quarantine_path(root, cell.cell_id)
            if os.path.exists(qpath):
                os.unlink(qpath)  # the cell recovered on a later pass
            if progress:
                state = "ok" if body["result"]["ok"] else "FAIL"
                progress(f"cell {len(results)}/{len(grid)} {cell.cell_id}: {state}")
            return True
        # No valid result: the attempt failed (crash, hang, torn write).
        if exitcode is None:
            reason = f"timed out after {cell_timeout_s:g}s"
        else:
            reason = f"worker exited with code {exitcode}"
        result.failed_attempts += 1
        if attempts >= max_cell_attempts:
            quarantined.append(cell.cell_id)
            write_checksummed_json(
                quarantine_path(root, cell.cell_id),
                {"cell": cell.describe(), "attempts": attempts, "last_error": reason},
                dir_sync=False,
            )
            if progress:
                progress(
                    f"cell {cell.cell_id}: QUARANTINED after "
                    f"{attempts} attempts ({reason})"
                )
        elif progress:
            progress(
                f"cell {cell.cell_id}: attempt {attempts} failed ({reason}); "
                f"retrying after backoff"
            )
        return False

    supervise(
        [(cell, (root, cell.describe(), settings)) for cell in pending],
        _cell_worker if worker is None else worker,
        settle,
        max_workers=max_workers,
        timeout_s=cell_timeout_s,
        max_attempts=max_cell_attempts,
        backoff_s=RETRY_BACKOFF_S,
        poll=None,
    )

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
