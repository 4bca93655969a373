"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the built-in platform inventory (cores, memory, cost anchors).
``demo-smp [N]``
    Run the componentized MJPEG decoder on the simulated 16-core SMP and
    print Table-1/2-style observations (default 20 images).
``demo-sti7200 [N]``
    Same on the simulated STi7200 (Table-3 style).
``observe``
    Run the quickstart pipeline on the native runtime and dump all three
    observation levels as JSON.
``run [--workload {mjpeg,traffic}] [--images N] [--components N]
[--shards N] [--metrics OUT] [--profile OUT.pstats]``
    Run a workload and print its shard-count-invariant digest.  The
    default ``mjpeg`` workload decodes the MJPEG stream and prints the
    sha256 of the decoded frame set; ``--shards N`` places the
    components on N shards, each a block of the platform's cores, of
    the one runtime; the digest is identical for every shard count --
    the CI ``shard-smoke`` job diffs them.  ``--metrics OUT`` additionally runs the live
    telemetry plane and writes the run's one registry (the ``metrics
    sha256:`` line is likewise shard-count invariant -- the CI
    ``metrics-smoke`` job diffs it); the traffic workload refuses it.
    ``--workload traffic`` runs the generated fan-in/fan-out service
    graph (``--components`` wide, 10k+ supported) instead; its invariant
    line is ``trace sha256:`` -- the CI ``scale-smoke`` job diffs it
    across shard counts.  Both workloads
    place components with the one static partitioner
    (``repro.sim.shard.partition_graph``).  ``--profile OUT.pstats``
    wraps the run in cProfile.
``top [--images N] [--shards N] [--watch]``
    Live ascii telemetry dashboard over the MJPEG SMP decode:
    per-component send/receive/latency/busy/restart table plus the
    windowed message-rate and latency chart; ``--watch`` replays the
    telemetry windows as redrawn terminal frames.
``faults [--seed S] [--images N] [--recover] [--durable DIR] [--kill9 K]
[--metrics OUT]``
    Run a seeded chaos campaign over the MJPEG SMP demo (crashes,
    drops, duplicates under supervision) and print the recovery
    report; exits 1 unless every surviving frame is bit-exact (see
    ``docs/robustness.md``), and 2 on a stream too short for the plan
    or a ``--kill9`` count that does not fit it.  The campaign
    carries the live telemetry plane with QoS contracts on the decode
    pipeline: plain campaigns
    trip the *ordering* contract (injected duplicates reach the app),
    ``--recover`` campaigns trip the *deadline* contract (replays
    arrive late) and dedup the duplicates.  ``--metrics OUT`` writes
    the campaign registry (refused with ``--durable``).  With
    ``--recover --durable DIR`` the campaign runs in a forked child OS
    process whose recovery state lives on disk in ``DIR``, and ``--kill9 K`` schedules K real
    SIGKILLs of that process mid-decode; the oracle is unchanged (the
    complete frame set, sha256-identical to the fault-free reference).
``recover {ls,dump,verify} DIR``
    Inspect a durable recovery directory: ``ls`` summarizes the
    manifest, checkpoints, WAL and frames; ``dump`` prints the WAL
    records; ``verify`` checks the whole binding (manifest <->
    checkpoint epochs <-> WAL scan) and exits 1 on inconsistency.
``trace [--images N] [--shards N] [--out PREFIX]``
    Run the MJPEG SMP demo with causal tracing, print the critical
    path and the per-hop latency table, and write the columnar trace
    plus a Chrome/Perfetto trace with causal flow arrows (see
    ``docs/observing.md``).  ``--shards N`` places the components on N
    shards; the run still traces into one buffer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import __version__


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro.hw import make_smp16, make_sti7200
    from repro.metrics import Table

    for platform in (make_smp16(), make_sti7200()):
        table = Table(
            ["core", "freq (MHz)", "node", "idct_block (us)", "memcpy 1kB (us)"],
            title=f"platform {platform.name}: {platform.n_cores} cores, "
            f"{platform.total_memory_bytes() / 1024**3:.0f} GiB",
        )
        for i, core in enumerate(platform.cores):
            table.add_row(
                [
                    core.name,
                    round(core.freq_hz / 1e6),
                    platform.node_of_core(i),
                    round(core.cost_ns("idct_block", 1) / 1e3, 1),
                    round(core.cost_ns("memcpy_byte", 1024) / 1e3, 2),
                ]
            )
        print(table.render())
        print()
    return 0


def _demo(platform: str, n_images: int) -> int:
    from repro.core import APPLICATION_LEVEL, OS_LEVEL
    from repro.metrics import Table
    from repro.metrics.analysis import summarize
    from repro.mjpeg import generate_stream
    from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly
    from repro.runtime import RunConfig, build_run

    stream = generate_stream(n_images, 96, 96, quality=75, seed=0)
    assemble = build_smp_assembly if platform == "smp" else build_sti7200_assembly
    app = assemble(stream, use_stored_coefficients=True)
    rt = build_run(RunConfig(platform), app)
    rt.run()
    reports = rt.collect()
    rt.stop()

    table = Table(["Component", "exec time (us)", "Mem (kB)", "sends", "receives"])
    for comp in app.functional_components():
        os_r = reports[(comp.name, OS_LEVEL)]
        ap_r = reports[(comp.name, APPLICATION_LEVEL)]
        table.add_row(
            [comp.name, os_r["exec_time_us"], os_r["memory_kb"], ap_r["sends"], ap_r["receives"]]
        )
    print(table.render())
    s = summarize(reports, makespan_ns=rt.makespan_ns)
    print(
        f"\nmakespan {rt.makespan_ns / 1e9:.3f} simulated s; "
        f"bottleneck {s['bottleneck']} (imbalance {s['imbalance']:.2f}); "
        f"messages conserved: {s['messages_conserved']}"
    )
    return 0


def _cmd_observe(_args: argparse.Namespace) -> int:
    from repro.core import Application, CONTROL, InterfaceContract
    from repro.runtime import RunConfig, build_run

    def producer(ctx):
        """Demo producer behaviour."""
        for _ in range(50):
            yield from ctx.send("out", bytes(2048))
        yield from ctx.send("out", None, kind=CONTROL, tag="eos")

    def consumer(ctx):
        """Demo consumer behaviour."""
        while True:
            msg = yield from ctx.receive("in")
            if msg.kind == CONTROL:
                return

    app = Application("observe")
    app.create("producer", behavior=producer, requires=["out"])
    app.create("consumer", behavior=consumer, provides=["in"])
    app.connect("producer", "out", "consumer", "in")
    # A QoS contract on the consumer input: checked live by the telemetry
    # plane, reported through the observer (see the command's --help for
    # the JSON schema).
    app.components["consumer"].set_contract(
        "in", InterfaceContract(deadline_ns=1_000_000_000, ordered=True, name="demo-qos")
    )
    app.attach_observer()
    rt = build_run(RunConfig("native", telemetry=True), app)
    rt.run()
    reports = rt.collect()
    rt.stop()
    printable = {f"{comp}/{level}": data for (comp, level), data in reports.items()}
    printable["contract_violations"] = app.observer.contract_violations()
    print(json.dumps(printable, indent=2, default=str))
    return 0


def _cmd_run_traffic(args: argparse.Namespace) -> int:
    """``run --workload traffic``: the service graph on the raw shard layer."""
    from repro.runtime import ConfigError
    from repro.workloads import TrafficConfig, run_traffic

    try:
        config = TrafficConfig(n_components=args.components, ticks=args.ticks)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    result = run_traffic(config, args.shards)
    mean = result["events"] / args.shards
    for k in range(args.shards):
        n = result["shard_events"][k]
        print(f"shard {k}: {n} events ({n / mean:.2f}x mean), "
              f"busy {result['shard_busy_s'][k] * 1e3:.1f} ms")
    print(f"sweeps: {result['sweeps']}  batch factor: "
          f"{result['batch_factor']:.1f} (released/callback)")
    workers = result["workers"]
    print("driver: cooperative" if workers == 1 else f"driver: {workers} worker processes")
    print(
        f"shards={args.shards} components={result['components']} "
        f"sessions={result['sessions']} requests={result['requests']} "
        f"events={result['events']} "
        f"({result['events'] / result['wall_s']:,.0f} events/s wall) "
        f"makespan={result['makespan_ns'] / 1e6:.3f} simulated ms"
    )
    print(f"trace sha256: {result['digest']}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """The ``run`` command (see the module docstring).

    ``--shards N`` places the components of the one ``SmpSimRuntime``
    on N core blocks; ``--metrics`` also pins the placement (below), so
    the makespan and the whole telemetry stream are bit-identical for
    any ``--shards N``.
    """
    from repro.hw import make_smp16
    from repro.mjpeg import generate_stream
    from repro.mjpeg.components import build_smp_assembly, frames_digest
    from repro.runtime import ConfigError, RunConfig, build_run

    # The traffic model runs on the raw shard layer, which takes the
    # SMP runtime's shard count: this one config checks both.
    config = RunConfig(shards=args.shards, telemetry=args.metrics is not None)
    if args.workload == "traffic":
        if args.metrics is not None:
            raise ConfigError("--workload traffic writes no --metrics; drop one of the two")
        return _cmd_run_traffic(args)
    stream = generate_stream(args.images, 96, 96, quality=75, seed=0)
    app = build_smp_assembly(stream, use_stored_coefficients=True, keep_frames=True)
    if args.metrics is not None:
        # Pin the placement so the shard partitioner cannot move
        # components between runs: shard-count invariance of the metrics
        # stream is only meaningful over one fixed placement.  The pins
        # are spread evenly over the platform's cores, so every shard's
        # core block hosts a component at any shard count.
        n_cores = make_smp16().n_cores
        n_components = len(app.components)
        for i, comp in enumerate(app.components.values()):
            comp.placement.setdefault("core", i * n_cores // n_components)
    rt = build_run(config, app)
    rt.run()
    reports = rt.collect()
    rt.stop()

    frames = app.components["Reorder"].frames
    if args.shards > 1:
        for shard in range(args.shards):
            names = sorted(n for n, c in rt.containers.items() if c.extra["shard"] == shard)
            if names:
                print(f"shard {shard}: {', '.join(names)}")
    print(
        f"shards={args.shards} images={args.images} frames={len(frames)} "
        f"reports={len(reports)} makespan={rt.makespan_ns / 1e6:.3f} simulated ms"
    )
    print(f"frames sha256: {frames_digest(frames)}")
    if args.metrics is not None:
        from repro.metrics import collect_telemetry, metrics_digest, write_metrics

        registry = collect_telemetry(rt)
        write_metrics(
            args.metrics, registry,
            meta={"command": "run", "images": args.images, "shards": args.shards},
        )
        n_instruments = len(registry.instruments())
        print(f"wrote {args.metrics} ({n_instruments} instruments, "
              f"{len(registry.windows)} windows)")
        print(f"metrics sha256: {metrics_digest(registry)}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.durable is not None:
        return _cmd_faults_durable(args)
    if args.kill9 is not None:
        print("--kill9 requires --recover --durable DIR (it kills a real process)",
              file=sys.stderr)
        return 2
    from repro.faults import FaultPlanError, run_chaos_campaign

    try:
        result = run_chaos_campaign(seed=args.seed, n_images=args.images, recover=args.recover)
    except FaultPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result.summary(), indent=2))
    for event in result.supervision:
        print(
            f"  t={event['t_ns'] / 1e6:10.3f}ms {event['component']:<8} "
            f"{event['action']:<8} attempt={event['attempt']} {event['error']}"
        )
    if result.metrics is not None:
        violations = ", ".join(
            f"{kind}={n}" for kind, n in sorted(result.contract_violations.items())
        )
        print(f"contract violations: {violations or 'none'} "
              f"({result.contract_trace_events} trace event(s))")
        if args.metrics is not None:
            from repro.metrics import metrics_digest, write_metrics

            write_metrics(
                args.metrics, result.metrics,
                meta={"command": "faults", "seed": args.seed,
                      "images": args.images, "recover": args.recover},
            )
            print(f"wrote {args.metrics}")
            print(f"metrics sha256: {metrics_digest(result.metrics)}")
    if not result.ok:
        if args.recover:
            print(
                "FAIL: recovery campaign lost frames or diverged from the "
                f"fault-free reference (lost={result.lost_frames})",
                file=sys.stderr,
            )
        else:
            print("FAIL: campaign did not deliver bit-exact surviving frames", file=sys.stderr)
        return 1
    line = (
        f"ok: {result.frames_delivered}/{result.frames_expected} frames bit-exact "
        f"after {result.restarts} restart(s), MTTR {result.mttr_us} us"
    )
    if args.recover:
        rec = result.recovery
        line += (
            f" | exactly-once: replayed={rec.get('replayed', 0)}"
            f" deduped={rec.get('deduped', 0)}"
            f" checkpoints={rec.get('checkpoints', 0)}"
        )
    print(line)
    return 0


def _cmd_faults_durable(args: argparse.Namespace) -> int:
    """The supervised kill-9 variant of the chaos campaign."""
    from repro.recovery.supervised import run_durable_campaign

    if not args.recover:
        print("--durable requires --recover (durability layers under the "
              "recovery manager)", file=sys.stderr)
        return 2
    if args.metrics is not None:
        print("error: a --durable campaign writes no --metrics; drop one of the two",
              file=sys.stderr)
        return 2
    try:
        result = run_durable_campaign(
            seed=args.seed,
            n_images=args.images,
            durable_dir=args.durable,
            kill9s=1 if args.kill9 is None else args.kill9,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result.summary(), indent=2))
    if not result.ok:
        print(
            "FAIL: durable campaign missed a scheduled kill, lost frames or "
            f"diverged from the fault-free reference ({result.kills}/"
            f"{result.kills_scheduled} kills, {result.frames_delivered}/"
            f"{result.frames_expected} frames)",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: {result.frames_delivered}/{result.frames_expected} frames "
        f"bit-exact after {result.kills} SIGKILL(s) and {result.spawns} "
        f"spawn(s) of the component process"
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Fleet campaigns: run / resume / report / ls (see repro.faults.fleet)."""
    from repro.faults.decision import build_report, render_report
    from repro.faults.fleet import (
        CampaignConfig,
        FleetError,
        build_grid,
        cell_result_path,
        load_aggregate,
        load_manifest,
        quarantine_path,
        run_fleet_campaign,
    )
    from repro.recovery.durable import DurableError

    def _split(raw: str, cast=str) -> tuple:
        return tuple(cast(part) for part in raw.split(",") if part)

    try:
        if args.action in ("run", "resume"):
            config = None
            if args.action == "run":
                config = CampaignConfig(
                    seeds=_split(args.seeds, int),
                    fault_classes=_split(args.classes),
                    intensities=_split(args.intensities),
                    policies=_split(args.policies),
                    shard_counts=_split(args.shards, int),
                    n_images=args.images,
                )
            result = run_fleet_campaign(
                args.dir,
                config=config,
                resume=args.action == "resume",
                max_workers=args.workers,
                cell_timeout_s=args.cell_timeout,
                max_cell_attempts=args.max_attempts,
                progress=None if args.json else print,
            )
            print(json.dumps(result.summary(), indent=2) if args.json else (
                f"{'ok' if result.ok else 'FAIL'}: {result.cells_ok}/"
                f"{result.n_cells} cells ok ({result.reused} reused, "
                f"{result.executed} executed, "
                f"{len(result.quarantined)} quarantined) in "
                f"{result.elapsed_s:.1f}s\n"
                f"aggregate sha256: {result.aggregate_sha256}"
            ))
            return 0 if result.ok else 1

        if args.action == "report":
            report = build_report(load_aggregate(args.dir))
            if args.json:
                print(json.dumps(report, indent=2))
            else:
                print(render_report(report), end="")
            return 0 if report["ok"] else 1

        # ls: cell-by-cell completion state of the campaign directory
        config = load_manifest(args.dir)
        grid = build_grid(config)
        digest = config.digest()
        done = missing = quarantined = 0
        for cell in grid:
            if os.path.exists(quarantine_path(args.dir, cell.cell_id)):
                state = "quarantined"
                quarantined += 1
            elif os.path.exists(cell_result_path(args.dir, cell.cell_id)):
                state = "done"
                done += 1
            else:
                state = "missing"
                missing += 1
            if args.verbose or state != "done":
                print(f"{state:<12} {cell.cell_id}")
        print(
            f"{len(grid)} cells (digest {digest[:12]}): {done} done, "
            f"{missing} missing, {quarantined} quarantined"
        )
        return 0
    except (FleetError, DurableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_recover(args: argparse.Namespace) -> int:
    """Inspect a durable recovery directory (ls / dump / verify)."""
    from repro.recovery.durable import (
        DurableError, DurableStore, FrameStore, MANIFEST_NAME,
    )
    from repro.recovery.wal import WalError, scan

    root = args.dir
    if not os.path.isdir(root):
        print(f"{root}: not a directory", file=sys.stderr)
        return 2
    store = DurableStore(root)

    if args.action == "verify":
        try:
            report = store.verify()
        except (DurableError, WalError, OSError) as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        print(json.dumps(report, indent=2))
        print("ok: manifest, checkpoints and WAL are consistent")
        return 0

    manifest_path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        print(f"{root}: no {MANIFEST_NAME} (not a durable recovery dir)", file=sys.stderr)
        return 1
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    wal_path = os.path.join(root, manifest["wal"])

    if args.action == "ls":
        print(f"{root}: durable recovery state "
              f"(config {manifest['config_digest'][:12]}, "
              f"{manifest['commits']} commit(s))")
        for name in sorted(manifest["epochs"]):
            filename = manifest["ckpts"][name]
            size = os.path.getsize(os.path.join(store.ckpts.root, filename))
            print(f"  ckpt  {name:<16} epoch {manifest['epochs'][name]:>4}  "
                  f"{size:>8} B  {filename}")
        if os.path.exists(wal_path):
            records, good, tail = scan(wal_path)
            counts: dict = {}
            for record in records:
                counts[record["t"]] = counts.get(record["t"], 0) + 1
            summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"  wal   {manifest['wal']:<16} {good:>8} B  tail={tail}  {summary}")
        frames = FrameStore(os.path.join(root, "frames"))
        if frames.count():
            print(f"  frames/{'':<15} {frames.count()} frame(s) on disk")
        return 0

    if args.action == "dump":
        records, good, tail = scan(wal_path)
        shown = records if args.limit is None else records[: args.limit]
        for i, record in enumerate(shown):
            kind = record["t"]
            if kind == "send":
                src, iface = record["key"]
                comp, prov = record["target"]
                msg = record["msg"]
                print(f"{i:>6} send  uid={record['uid']:<6} dseq={record['dseq']:<5} "
                      f"{src}.{iface} -> {comp}.{prov} kind={msg['kind']} "
                      f"tag={msg['tag']!r} bytes={msg['size_bytes']}")
            elif kind == "acks":
                pairs = ", ".join(f"{s}.{i}#{d}" for (s, i), d in record["msgs"])
                print(f"{i:>6} acks  {pairs}")
            elif kind == "ckpt":
                print(f"{i:>6} ckpt  {record['component']} epoch={record['epoch']}")
            else:
                print(f"{i:>6} {kind}  {record}")
        if args.limit is not None and len(records) > args.limit:
            print(f"... {len(records) - args.limit} more record(s)")
        print(f"{len(records)} record(s), {good} trusted byte(s), tail={tail}")
        return 0

    raise AssertionError(f"unhandled recover action {args.action!r}")  # pragma: no cover


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.metrics import Table
    from repro.metrics.analysis import backpressure_report
    from repro.mjpeg import generate_stream
    from repro.mjpeg.components import build_smp_assembly
    from repro.runtime import RunConfig, build_run
    from repro.trace import (
        SpanGraph,
        collect_trace,
        queue_depth_series,
        write_chrome_trace,
        write_columns,
    )

    config = RunConfig(shards=args.shards, trace=True, telemetry=args.metrics is not None)
    stream = generate_stream(args.images, 96, 96, quality=75, seed=0)
    rt = build_run(config, build_smp_assembly(stream, use_stored_coefficients=True))
    rt.run()
    rt.stop()
    buffer = collect_trace(rt)

    graph = SpanGraph.from_trace(buffer)
    items = graph.attribute_items("frame")
    if not items:
        print("no frames delivered; nothing to attribute", file=sys.stderr)
        return 1
    worst = max(items, key=lambda it: it.e2e_ns)

    print(
        f"{len(items)} frames delivered; {len(graph.edges)} spans, "
        f"{len(graph.dropped)} dropped, {buffer.dropped} trace events truncated"
    )
    print(
        f"\ncritical path (slowest frame, span {worst.item_span}): "
        f"e2e {worst.e2e_ns / 1e3:.1f} us, attributed {worst.attributed_ns / 1e3:.1f} us"
    )
    table = Table(
        ["hop", "op", "mailbox", "compute (us)", "send (us)", "queue (us)", "recv (us)"]
    )
    for hop in worst.hops:
        e = hop.edge
        table.add_row(
            [
                f"{e.src}.{e.iface}",
                e.op,
                e.mailbox,
                round(hop.compute_ns / 1e3, 1),
                round(hop.send_ns / 1e3, 1),
                round(hop.queue_ns / 1e3, 1),
                round(hop.recv_ns / 1e3, 1),
            ]
        )
    print(table.render())

    breakdown = worst.breakdown()
    total = sum(breakdown.values()) or 1
    shares = ", ".join(
        f"{seg.removesuffix('_ns')} {100 * v / total:.0f}%" for seg, v in breakdown.items()
    )
    print(f"attribution: {shares}")

    mean_e2e = sum(it.e2e_ns for it in items) / len(items)
    print(
        f"frame latency: mean {mean_e2e / 1e3:.1f} us, "
        f"worst {worst.e2e_ns / 1e3:.1f} us over {len(items)} frames"
    )

    pressure = backpressure_report(queue_depth_series(buffer))
    busiest = sorted(pressure.items(), key=lambda kv: -kv[1]["mean_depth"])[:5]
    print("\nbusiest mailboxes (time-weighted mean depth):")
    for mailbox, stats in busiest:
        print(
            f"  {mailbox:<24} mean {stats['mean_depth']:5.2f}  "
            f"peak {stats['peak_depth']:3d}  final {stats['final_depth']}"
        )

    columns_path = f"{args.out}.columns.json"
    chrome_path = f"{args.out}.chrome.json"
    n_cols = write_columns(buffer, columns_path)
    n_chrome = write_chrome_trace(buffer.events(), chrome_path)
    print(f"\nwrote {columns_path} ({n_cols} events)")
    print(f"wrote {chrome_path} ({n_chrome} records; open in https://ui.perfetto.dev)")
    if args.metrics is not None:
        from repro.metrics import collect_telemetry, write_metrics

        registry = collect_telemetry(rt)
        write_metrics(
            args.metrics, registry,
            meta={"command": "trace", "images": args.images, "shards": args.shards},
        )
        print(f"wrote {args.metrics} ({len(registry.instruments())} instruments)")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """The decode's telemetry as the ``top`` dashboard; ``--watch``
    replays it one telemetry window per redrawn frame."""
    import time

    from repro.metrics import collect_telemetry
    from repro.metrics.dashboard import CLEAR, iter_frames, render_dashboard
    from repro.mjpeg import generate_stream
    from repro.mjpeg.components import build_smp_assembly
    from repro.runtime import RunConfig, build_run

    config = RunConfig(shards=args.shards, telemetry=True)
    stream = generate_stream(args.images, 96, 96, quality=75, seed=0)
    app = build_smp_assembly(stream, use_stored_coefficients=True)
    rt = build_run(config, app)
    rt.run()
    rt.collect()
    rt.stop()
    registry = collect_telemetry(rt)

    if args.watch:
        for frame in iter_frames(registry, width=args.width):
            print(CLEAR, end="")
            print(frame)
            time.sleep(args.interval)
    else:
        title = f"repro top -- mjpeg decode, {args.images} images, {args.shards} shard(s)"
        print(render_dashboard(registry, width=args.width, title=title))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    from repro.faults.campaign import FAULT_CLASSES, INTENSITIES, POLICIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="EMBera reproduction: component-based observation of MPSoC",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the built-in platform inventory")

    demo_smp = sub.add_parser("demo-smp", help="MJPEG decoder on the SMP model")
    demo_smp.add_argument("images", nargs="?", type=int, default=20)

    demo_sti = sub.add_parser("demo-sti7200", help="MJPEG decoder on the STi7200 model")
    demo_sti.add_argument("images", nargs="?", type=int, default=20)

    observe = sub.add_parser(
        "observe", help="observe a native-runtime pipeline, dump JSON",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "output schema (JSON object):\n"
            "  '<component>/os'           exec_time_us, memory_kb, stack_kb\n"
            "  '<component>/middleware'   sends, receives, queue_depths,\n"
            "                             per-interface message/byte counts, and\n"
            "                             'telemetry': {send_duration_ns |\n"
            "                             receive_duration_ns |\n"
            "                             delivery_latency_ns: {iface: {count,\n"
            "                             p50_ns, p90_ns, p99_ns, p999_ns}}}\n"
            "                             streaming-histogram percentiles\n"
            "                             (log2 buckets, no per-sample storage)\n"
            "  '<component>/application'  sends/receives/faults plus 'contracts':\n"
            "                             {contracts: {iface: clauses}, violations,\n"
            "                             violations_by_interface} when the\n"
            "                             component declares interface contracts\n"
            "  'contract_violations'      observer-wide rollup: {total,\n"
            "                             by_component: {name: {contracts,\n"
            "                             violations, by_interface}}}\n"
        ),
    )

    run = sub.add_parser(
        "run", help="MJPEG SMP decode; prints the frame-set sha256 (CI contract)"
    )
    run.add_argument(
        "--workload", choices=("mjpeg", "traffic"), default="mjpeg",
        help="mjpeg: the paper's decode pipeline ('frames sha256:' "
        "contract); traffic: the generated fan-in/fan-out service graph "
        "of --components lightweight components ('trace sha256:' contract)",
    )
    run.add_argument(
        "--components", type=int, default=1000, metavar="N",
        help="traffic workload size (components in the service graph)",
    )
    run.add_argument(
        "--ticks", type=int, default=3, metavar="T",
        help="traffic workload load ticks (request waves per session)",
    )
    run.add_argument("--images", type=int, default=8, help="stream length")
    run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="place the components on N shards, each a block of cores (the "
        "frames digest is identical for any N; with --metrics's pinned "
        "placement so are the makespan and the metrics digest); the "
        "traffic workload runs N shards of the raw shard layer",
    )
    run.add_argument(
        "--metrics", metavar="OUT", default=None,
        help="enable the live telemetry plane and write the registry "
        "to OUT (.prom/.txt = Prometheus text, else JSON); pins the "
        "placement and prints a shard-count-invariant 'metrics sha256:' line "
        "(mjpeg workload only)",
    )
    run.add_argument(
        "--profile", dest="pstats", metavar="OUT.pstats", default=None,
        help="run under cProfile and dump the stats to OUT.pstats "
        "(inspect with `python -m pstats OUT.pstats`)",
    )

    faults = sub.add_parser(
        "faults", help="seeded chaos campaign on the MJPEG SMP demo"
    )
    faults.add_argument("--seed", type=int, default=0, help="campaign seed")
    faults.add_argument("--images", type=int, default=10, help="stream length")
    faults.add_argument(
        "--recover",
        action="store_true",
        help="install the recovery manager: checkpoints, acked delivery and "
        "crash-consistent replay; requires the complete frame set bit-exact",
    )
    faults.add_argument(
        "--durable", metavar="DIR", default=None,
        help="run the campaign in a supervised child OS process with its "
        "recovery state (WAL + checkpoints + frames) persisted in DIR; "
        "requires --recover",
    )
    faults.add_argument(
        "--kill9", type=int, default=None, metavar="K",
        help="with --durable: schedule K real SIGKILLs of the component "
        "process at seed-derived durable-frame counts (default 1)",
    )
    faults.add_argument(
        "--metrics", metavar="OUT", default=None,
        help="write the campaign's telemetry registry (latency histograms, "
        "restart/MTTR series, contract-violation counters) to OUT "
        "(.prom/.txt = Prometheus text, else JSON); not with --durable",
    )

    campaign = sub.add_parser(
        "campaign",
        help="fleet chaos campaign: run/resume a resumable cell grid, "
        "render the Pareto decision report",
    )
    campaign.add_argument(
        "action", choices=("run", "resume", "report", "ls"),
        help="run: start (or idempotently continue) a campaign; resume: "
        "complete the missing cells of an interrupted one; report: render "
        "the decision-support report from the aggregate; ls: list cell "
        "completion state",
    )
    campaign.add_argument("dir", help="campaign directory")
    campaign.add_argument(
        "--seeds", default="1,7,42", metavar="S,S,...",
        help="comma-separated campaign seeds (run only)",
    )
    campaign.add_argument(
        "--classes", default=",".join(FAULT_CLASSES),
        metavar="C,C,...", help="fault classes of the grid (run only)",
    )
    campaign.add_argument(
        "--intensities", default=",".join(INTENSITIES), metavar="I,I,...",
        help="fault intensities of the grid (run only)",
    )
    campaign.add_argument(
        "--policies", default=",".join(POLICIES),
        metavar="P,P,...", help="supervision policies of the grid (run only)",
    )
    campaign.add_argument(
        "--shards", default="1,2", metavar="N,N,...",
        help="platform shard counts of the grid (run only)",
    )
    campaign.add_argument(
        "--images", type=int, default=4, help="stream length per cell (run only)"
    )
    campaign.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker-pool size (default: min(8, cpu count))",
    )
    campaign.add_argument(
        "--cell-timeout", type=float, default=120.0, metavar="S",
        help="kill a cell worker after S seconds (hung-worker reaping)",
    )
    campaign.add_argument(
        "--max-attempts", type=int, default=3, metavar="K",
        help="quarantine a cell after K failed attempts",
    )
    campaign.add_argument(
        "--json", action="store_true",
        help="machine-readable output (summary / report as JSON)",
    )
    campaign.add_argument(
        "--verbose", action="store_true",
        help="ls: list completed cells too, not only missing/quarantined",
    )

    recover = sub.add_parser(
        "recover", help="inspect a durable recovery directory (WAL, checkpoints)"
    )
    recover.add_argument(
        "action", choices=("ls", "dump", "verify"),
        help="ls: summarize; dump: print WAL records; verify: check consistency",
    )
    recover.add_argument("dir", help="durable recovery directory")
    recover.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="dump: show at most N records",
    )

    trace = sub.add_parser(
        "trace", help="causal trace of the MJPEG SMP demo (critical path, flows)"
    )
    trace.add_argument("--images", type=int, default=8, help="stream length")
    trace.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="place the components on N shards (the trace is one buffer at any N)",
    )
    trace.add_argument(
        "--out", default="TRACE_mjpeg", help="output path prefix for trace artifacts"
    )
    trace.add_argument(
        "--metrics", metavar="OUT", default=None,
        help="also run the telemetry plane and write the registry to OUT",
    )

    top = sub.add_parser(
        "top", help="live ascii telemetry dashboard over the MJPEG SMP decode"
    )
    top.add_argument("--images", type=int, default=8, help="stream length")
    top.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="place the components on N shards (one telemetry registry at any N)",
    )
    top.add_argument(
        "--watch", action="store_true",
        help="replay the recorded telemetry windows as live frames, "
        "redrawing the terminal per window",
    )
    top.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="seconds between --watch frames (default 0.5)",
    )
    top.add_argument(
        "--width", type=int, default=72, help="dashboard width in columns"
    )
    return parser


def _profiled(args: argparse.Namespace, fn) -> int:
    """Run ``fn()`` under cProfile when ``--profile OUT.pstats`` was
    given (the stats file is written even if the command fails)."""
    path = getattr(args, "pstats", None)
    if path is None:
        return fn()
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"wrote {path} (inspect with `python -m pstats {path}`)")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (2 for a run
    configuration no runtime supports)."""
    from repro.runtime import ConfigError

    args = build_parser().parse_args(argv)
    command = {
        "info": _cmd_info,
        "demo-smp": lambda a: _demo("smp", a.images),
        "demo-sti7200": lambda a: _demo("sti7200", a.images),
        "observe": _cmd_observe,
        "run": lambda a: _profiled(a, lambda: _cmd_run(a)),
        "faults": _cmd_faults,
        "campaign": _cmd_campaign,
        "recover": _cmd_recover,
        "trace": _cmd_trace,
        "top": _cmd_top,
    }[args.command]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): point stdout at
        # devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
