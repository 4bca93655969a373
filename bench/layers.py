"""Per-layer host-time attribution for one traced iteration.

The public entry points of each layer are wrapped from outside the
program while a traced iteration runs.  Every call -- or every
resumption of a generator -- opens a span; a layer's self time is the
time of its spans minus the time of the spans opened inside them.
Kernel callbacks are wrapped when they are scheduled, so the kernel's
self time is its own loop and queue work, not the events it runs.  What
no layer claims -- runtime glue, the OS cost model, behaviour code,
traffic handlers -- is the residual: traced run time minus every
layer's self time.

Wrappers go in before the runtime is built (objects that cache bound
methods pick them up) and come out after it stops.  The wrappers cost
time of their own, which lands in the spans around them; ``bench run``
reports that cost as ``bench.trace_overhead``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
from collections import namedtuple
from time import perf_counter_ns
from typing import Callable, Dict, List

#: Layers in stack order, named after their modules.
LAYERS = (
    "sim.kernel",
    "sim.resources",
    "sim.mailbox",
    "sim.shard",
    "core.context",
    "core.observation",
    "trace",
    "metrics",
    "core.contracts",
    "mjpeg.entropy",
    "mjpeg.idct",
    "embx",
    "faults",
    "recovery",
    "gc",
)

#: ``counters`` are bumped once per call; ``track`` keeps the receiving
#: instance so counters the object already keeps can be read at the end.
Entry = namedtuple("Entry", "layer target counters track", defaults=((), False))

ENTRY_POINTS = (
    Entry("sim.kernel", "repro.sim.kernel:Kernel.run"),
    Entry("sim.kernel", "repro.sim.kernel:Kernel.peek"),
    Entry("sim.kernel", "repro.sim.kernel:EventHandle.cancel", ("sim.kernel.cancels",)),
    Entry("sim.resources", "repro.sim.resources:Channel.put", ("sim.resources.puts",)),
    Entry("sim.resources", "repro.sim.resources:Channel.put_front", ("sim.resources.puts",)),
    Entry("sim.resources", "repro.sim.resources:Channel.get", ("sim.resources.gets",)),
    Entry("sim.resources", "repro.sim.resources:Channel.get_with_deadline", ("sim.resources.gets",)),
    Entry("sim.resources", "repro.sim.resources:Channel.try_get"),
    Entry("sim.mailbox", "repro.sim.shard:Shard.stage", ("sim.mailbox.envelopes",)),
    Entry(
        "sim.mailbox", "repro.sim.shard:Shard.post",
        ("sim.mailbox.envelopes", "sim.mailbox.cross_shard"),
    ),
    Entry("sim.mailbox", "repro.sim.mailbox:Staging.push_many"),
    Entry("sim.mailbox", "repro.sim.mailbox:Staging.release_batched", track=True),
    Entry("sim.mailbox", "repro.sim.mailbox:Staging.release_below", track=True),
    Entry("sim.shard", "repro.sim.shard:ShardedSimulation.run", track=True),
    Entry("sim.shard", "repro.sim.shard:Shard.run_until", track=True),
    Entry("sim.shard", "repro.sim.shard:Shard.eot"),
    Entry("sim.shard", "repro.sim.shard:Shard.drain_inbox"),
    Entry("core.context", "repro.core.context:ComponentContext.send", ("core.context.sends",)),
    Entry(
        "core.context", "repro.core.context:ComponentContext.receive",
        ("core.context.receives",),
    ),
    Entry("core.context", "repro.core.context:ComponentContext.deposit"),
    Entry("core.context", "repro.core.context:ComponentContext.try_receive"),
    Entry(
        "core.context", "repro.runtime.simulated:SimContext.compute",
        ("core.context.computes",),
    ),
    Entry(
        "core.observation", "repro.core.observation:ObservationProbe.record_send",
        ("core.observation.records",),
    ),
    Entry(
        "core.observation", "repro.core.observation:ObservationProbe.record_receive",
        ("core.observation.records",),
    ),
    Entry(
        "core.observation", "repro.core.observation:ObservationProbe.record_deposit",
        ("core.observation.records",),
    ),
    Entry("core.observation", "repro.core.observation:ObservationProbe.report"),
    Entry("trace", "repro.trace.tracer:Tracer.emit", ("trace.rows",)),
    Entry("trace", "repro.trace.tracer:TracingContext.send"),
    Entry("trace", "repro.trace.tracer:TracingContext.receive"),
    Entry("trace", "repro.trace.tracer:TracingContext.deposit"),
    Entry("trace", "repro.trace.tracer:TracingContext.try_receive"),
    Entry("trace", "repro.trace.tracer:TracingContext.compute"),
    Entry("metrics", "repro.metrics.telemetry:MetricsRegistry.advance"),
    Entry("metrics", "repro.metrics.telemetry:MetricsRegistry.finish", track=True),
    # The campaign imports collect_telemetry by name.
    Entry("metrics", "repro.metrics.telemetry:collect_telemetry"),
    Entry("metrics", "repro.faults.campaign:collect_telemetry"),
    Entry(
        "core.contracts", "repro.core.contracts:ContractChecker.on_send",
        ("core.contracts.checks",),
    ),
    Entry(
        "core.contracts", "repro.core.contracts:ContractChecker.on_receive",
        ("core.contracts.checks",), track=True,
    ),
    Entry("core.contracts", "repro.core.contracts:ContractChecker.on_window"),
    # The codec is patched where the components look it up.
    Entry(
        "mjpeg.entropy", "repro.mjpeg.components:decode_frame_coefficients",
        ("mjpeg.entropy.frames",),
    ),
    Entry(
        "mjpeg.entropy", "repro.mjpeg.components:coefficients_from_qzz",
        ("mjpeg.entropy.frames",),
    ),
    Entry("mjpeg.idct", "repro.mjpeg.components:idct_stage", ("mjpeg.idct.batches",)),
    Entry("embx", "repro.embx.transport:EmbxTransport.send", ("embx.sends",)),
    Entry("embx", "repro.embx.transport:EmbxTransport.receive", ("embx.receives",)),
    Entry("faults", "repro.faults.injector:FaultInjector.on_transfer"),
    Entry("faults", "repro.faults.injector:FaultInjector.before_receive", track=True),
    Entry("faults", "repro.faults.injector:FaultInjector.after_receive"),
    Entry("recovery", "repro.recovery.manager:RecoveryManager.on_send"),
    Entry("recovery", "repro.recovery.manager:RecoveryManager.before_receive"),
    Entry("recovery", "repro.recovery.manager:RecoveryManager.on_message"),
    Entry(
        "recovery", "repro.recovery.manager:RecoveryManager.on_delivered",
        ("recovery.delivered",), track=True,
    ),
    Entry("recovery", "repro.recovery.manager:RecoveryManager.on_restart"),
)

#: Kernel inserts: the callback argument is wrapped so that the work an
#: event runs is not counted as kernel time.
KERNEL_INSERTS = ("schedule", "schedule_at", "call_soon", "schedule_timer")

#: Every per-layer metric ``bench run --trace`` reports, with its unit.
#: A metric of a layer the workload never enters reads 0.
METRICS: Dict[str, str] = {f"{layer}.self_pct": "%" for layer in LAYERS}
METRICS.update({
    "residual.self_pct": "%",
    "sim.kernel.events": "count",
    "sim.kernel.inserts": "count",
    "sim.kernel.timers": "count",
    "sim.kernel.cancels": "count",
    "sim.kernel.ns_per_event": "ns",
    "sim.resources.puts": "count",
    "sim.resources.gets": "count",
    "sim.mailbox.envelopes": "count",
    "sim.mailbox.cross_shard": "count",
    "sim.mailbox.batches": "count",
    "sim.mailbox.batch_factor": "ratio",
    "sim.shard.sweeps": "count",
    "sim.shard.imbalance": "ratio",
    "core.context.sends": "count",
    "core.context.receives": "count",
    "core.context.computes": "count",
    "core.observation.records": "count",
    "trace.rows": "count",
    "metrics.windows": "count",
    "core.contracts.checks": "count",
    "core.contracts.violations": "count",
    "mjpeg.entropy.frames": "count",
    "mjpeg.idct.batches": "count",
    "embx.sends": "count",
    "embx.receives": "count",
    "faults.injected": "count",
    "recovery.checkpoints": "count",
    "recovery.replayed": "count",
    "recovery.deduped": "count",
    "recovery.useful_ratio": "ratio",
    "gc.collections": "count",
    "bench.trace_overhead": "ratio",
})


class Spans:
    """Self-time and count accumulators for the spans of one iteration."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: class name -> {id: instance} for entries with ``track``.
        self.seen: Dict[str, Dict[int, object]] = {}
        #: Child time of every open span, innermost last.
        self.stack: List[int] = []
        self._gc_t0 = 0

    def reset(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        self.self_ns.clear()
        self.counts.clear()
        self.seen.clear()
        self.stack.clear()

    # -- wrappers ---------------------------------------------------------

    def timed(self, layer, fn: Callable, counters=(), track: bool = False) -> Callable:
        """``fn`` with each call recorded as a span of ``layer``.  A
        generator function gets a span per resumption instead."""
        stack, self_ns, counts, seen = self.stack, self.self_ns, self.counts, self.seen
        owner = fn.__qualname__.split(".")[0]
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for name in counters:
                counts[name] = counts.get(name, 0) + 1
            if track:
                seen.setdefault(owner, {})[id(args[0])] = args[0]
            if generator:
                return self.stepped(layer, fn(*args, **kwargs))
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self_ns[layer] = self_ns.get(layer, 0) + dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def stepped(self, layer, gen):
        """Drive ``gen`` one step per span, forwarding ``send``,
        ``throw`` and ``close`` and returning its return value, so a
        caller's ``yield from`` cannot tell it from ``gen`` itself."""
        stack, self_ns = self.stack, self.self_ns
        value = None
        error = None
        while True:
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    out = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                dt = perf_counter_ns() - t0
                self_ns[layer] = self_ns.get(layer, 0) + dt - stack.pop()
                if stack:
                    stack[-1] += dt
            error = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                error = exc

    def kernel_insert(self, fn: Callable) -> Callable:
        """A kernel insert (``fn``) whose callback runs in a span of no
        layer, so the event's work falls to whatever layer it enters."""
        counters = ("sim.kernel.inserts",)
        if fn.__name__ == "schedule_timer":
            counters += ("sim.kernel.timers",)
        timed_insert = self.timed("sim.kernel", fn, counters)
        run_event = self.timed(
            None, lambda callback, *args: callback(*args), ("sim.kernel.events",)
        )
        partial = functools.partial

        if fn.__name__ == "call_soon":
            def wrapper(kernel, callback, *args):
                return timed_insert(kernel, partial(run_event, callback), *args)
        else:
            def wrapper(kernel, when, callback, *args):
                return timed_insert(kernel, when, partial(run_event, callback), *args)

        return functools.wraps(fn)(wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        stack, self_ns = self.stack, self.self_ns
        if phase == "start":
            stack.append(0)
            self._gc_t0 = perf_counter_ns()
            return
        dt = perf_counter_ns() - self._gc_t0
        self_ns["gc"] = self_ns.get("gc", 0) + dt - stack.pop()
        if stack:
            stack[-1] += dt
        self.counts["gc.collections"] = self.counts.get("gc.collections", 0) + 1


def _resolve(target: str):
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(spans: Spans) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them."""
    patches = []

    def patch(owner, attr, wrap):
        original = vars(owner)[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    for entry in ENTRY_POINTS:
        owner, attr = _resolve(entry.target)
        patch(owner, attr, lambda fn, e=entry: spans.timed(e.layer, fn, e.counters, e.track))
    kernel_cls = importlib.import_module("repro.sim.kernel").Kernel
    for attr in KERNEL_INSERTS:
        patch(kernel_cls, attr, spans.kernel_insert)
    gc.callbacks.append(spans._on_gc)

    def uninstall() -> None:
        gc.callbacks.remove(spans._on_gc)
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return uninstall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, run_ns: int) -> Dict[str, float]:
    """Every :data:`METRICS` entry except ``bench.trace_overhead``, for
    an iteration whose traced run took ``run_ns``."""
    self_ns, counts, seen = spans.self_ns, spans.counts, spans.seen
    out: Dict[str, float] = {}
    claimed = 0
    for layer in LAYERS:
        ns = self_ns.get(layer, 0)
        claimed += ns
        out[f"{layer}.self_pct"] = 100.0 * ns / run_ns
    out["residual.self_pct"] = 100.0 * (run_ns - claimed) / run_ns
    for name, unit in METRICS.items():
        if unit == "count":
            out[name] = counts.get(name, 0)
    out["sim.kernel.ns_per_event"] = _ratio(
        self_ns.get("sim.kernel", 0), counts.get("sim.kernel.events", 0)
    )

    stagings = seen.get("Staging", {}).values()
    out["sim.mailbox.batches"] = sum(s.batches for s in stagings)
    out["sim.mailbox.batch_factor"] = _ratio(
        sum(s.released for s in stagings), out["sim.mailbox.batches"]
    )
    out["sim.shard.sweeps"] = sum(s.sweeps for s in seen.get("ShardedSimulation", {}).values())
    busy = [s.busy_s for s in seen.get("Shard", {}).values()]
    out["sim.shard.imbalance"] = _ratio(max(busy), sum(busy) / len(busy)) if busy else 0.0
    out["metrics.windows"] = sum(
        len(r.windows) for r in seen.get("MetricsRegistry", {}).values()
    )
    out["core.contracts.violations"] = sum(
        sum(c.violations.values()) for c in seen.get("ContractChecker", {}).values()
    )
    out["faults.injected"] = sum(
        sum(f.counts().values()) for f in seen.get("FaultInjector", {}).values()
    )
    reports = [m.report() for m in seen.get("RecoveryManager", {}).values()]
    for key in ("checkpoints", "replayed", "deduped"):
        out[f"recovery.{key}"] = sum(r[key] for r in reports)
    delivered = counts.get("recovery.delivered", 0)
    out["recovery.useful_ratio"] = _ratio(delivered, delivered + out["recovery.deduped"])
    return out
