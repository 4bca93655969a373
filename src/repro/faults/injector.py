"""Fault injection by context interposition.

The :class:`FaultInjector` installs itself as the ``faults`` hook of every
deployed component context -- the exact interposition point the
observation probe uses -- so fault campaigns, like observation, require
**no change to behaviour code**.  Transfer faults (drop / duplicate /
delay / corrupt / overflow) act on the sender's ``send`` path; receive
faults (crash-at-nth-receive, stall) act on the receiver's ``receive``
path; time-triggered crashes are armed by kernel callbacks at exact
virtual instants on the simulated runtimes, on the kernel of the
victim's context.

Determinism: every probabilistic decision draws from a named stream of
the plan's :class:`~repro.sim.rng.RngRegistry`
(``fault.<kind>.<component>.<interface>``), so a campaign replays
bit-exactly for a given seed regardless of which other faults are added
later.

Only ``data``-kind messages are faulted.  Control traffic (end-of-stream)
and observation traffic are infrastructure: losing them would wedge the
application rather than degrade it, which is not the failure model under
study.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.core.context import DELIVER, DROP as VERDICT_DROP, DUPLICATE as VERDICT_DUPLICATE
from repro.core.errors import InjectedFault
from repro.core.messages import DATA
from repro.faults.plan import (
    CORRUPT,
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    FaultPlan,
    FaultSpec,
    OVERFLOW,
    STALL,
    TRANSFER_KINDS,
)
from repro.sim.rng import RngRegistry


def _corrupt_value(value: Any, rng: np.random.Generator) -> Any:
    """Deterministically perturb one leaf of a payload; returns the
    corrupted value (copies arrays/bytes, never mutates the original)."""
    if isinstance(value, np.ndarray) and value.size:
        out = value.copy()
        flat = out.reshape(-1)
        idx = int(rng.integers(flat.size))
        if np.issubdtype(out.dtype, np.floating):
            flat[idx] = -flat[idx] - 1.0
        else:
            flat[idx] = flat[idx] ^ 0x55
        return out
    if isinstance(value, (bytes, bytearray)) and len(value):
        buf = bytearray(value)
        buf[int(rng.integers(len(buf)))] ^= 0x55
        return bytes(buf)
    if isinstance(value, dict) and value:
        keys = sorted(value, key=repr)
        key = keys[int(rng.integers(len(keys)))]
        return {**value, key: _corrupt_value(value[key], rng)}
    if isinstance(value, (list, tuple)) and value:
        idx = int(rng.integers(len(value)))
        items = list(value)
        items[idx] = _corrupt_value(items[idx], rng)
        return type(value)(items) if isinstance(value, tuple) else items
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value ^ 0x55
    if isinstance(value, float):
        return -value - 1.0
    return value  # uncorruptible leaf: delivered intact


class FaultInjector:
    """Applies a :class:`~repro.faults.plan.FaultPlan` to a deployed runtime."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = RngRegistry(plan.seed)
        #: Chronological record of every injected fault:
        #: ``{"t_ns", "component", "kind", "detail"}`` dicts.  Two runs of
        #: the same seeded campaign produce identical logs -- the
        #: reproducibility contract tests assert on.
        self.log: List[Dict[str, Any]] = []
        self._transfer_specs: Dict[tuple, List[tuple]] = {}  # (spec, rng stream) pairs
        self._receive_specs: Dict[str, List[FaultSpec]] = {}
        self._time_crashes: List[FaultSpec] = []
        self._armed: Dict[str, List[FaultSpec]] = {}
        self._recv_counts: Dict[str, int] = {}
        self._fired: set = set()  # one-shot specs already delivered
        #: The runtime's containers by name, where a fault record finds
        #: the victim's probe and tracer.
        self._containers: Dict[str, Any] = {}
        self._epoch_ns: Optional[int] = None  # native-runtime time origin
        self.installed = False
        plan.validate()  # cross-spec conflicts fail here, not mid-campaign
        for spec in plan.specs:
            if spec.kind in TRANSFER_KINDS:
                # Pair each spec with its rng stream up front: streams are
                # memoized by name in the registry, so this draws the same
                # sequence as a per-transfer lookup while keeping the hot
                # interposition path free of string formatting.
                stream = self.rng.stream(f"fault.{spec.kind}.{spec.component}.{spec.interface}")
                self._transfer_specs.setdefault((spec.component, spec.interface), []).append(
                    (spec, stream)
                )
            elif spec.kind == CRASH and spec.at_ns is not None:
                self._time_crashes.append(spec)
            else:  # crash-at-nth-receive, stall
                self._receive_specs.setdefault(spec.component, []).append(spec)

    # -- installation ---------------------------------------------------------

    def install(self, runtime) -> "FaultInjector":
        """Hook every behaviour context of ``runtime``: the deployed ones
        now, and each one ``runtime.add_component`` creates later.  Call
        after ``deploy()`` and before ``start()``;
        :func:`repro.runtime.build.build_run` does this for
        ``RunConfig(faults=plan)``."""
        if self.installed:
            raise RuntimeError("fault injector already installed")
        for spec in self.plan.specs:
            if spec.component not in runtime.containers:
                raise RuntimeError(
                    f"fault plan targets unknown component {spec.component!r}"
                )
        self._containers = runtime.containers
        for cont in runtime.containers.values():
            self.attach(cont)
        kernel = getattr(runtime, "kernel", None)
        if kernel is not None:
            for spec in sorted(self._time_crashes, key=lambda s: (s.at_ns, s.component)):
                kernel.schedule(spec.at_ns, self._arm, spec)
        elif self._time_crashes:
            # Native runtime: no virtual clock to ride; crashes arm
            # against elapsed wall time from installation.
            first = next(iter(runtime.containers.values()), None)
            if first is not None and first.context is not None:
                self._epoch_ns = first.context.now_ns()
        runtime.injector = self
        self.installed = True
        return self

    def attach(self, cont) -> None:
        """Hook one deployed container's behaviour context."""
        cont.hook_context.faults = self

    def _arm(self, spec: FaultSpec) -> None:
        """Kernel callback at ``spec.at_ns`` after installation: arm a timed
        crash (it fires at the victim's next middleware interaction, where
        the injected error can propagate)."""
        self._armed.setdefault(spec.component, []).append(spec)
        self._record(spec.at_ns, spec.component, "crash-armed", f"at_ns={spec.at_ns}")

    # -- bookkeeping ----------------------------------------------------------

    def _record(
        self, t_ns: int, component: str, kind: str, detail: str = "", span: int = 0
    ) -> None:
        entry = {"t_ns": int(t_ns), "component": component, "kind": kind, "detail": detail}
        if span:
            # The causal identity of the faulted message: a dropped or
            # duplicated span shows up here instead of silently vanishing
            # from (or double-counting in) the receive-edge stream.
            entry["span"] = int(span)
        self.log.append(entry)
        cont = self._containers[component]
        if not kind.endswith("-armed"):
            cont.probe.record_fault(kind)
        tracer = cont.extra.get("tracer")
        if tracer is not None:
            if span:
                tracer.emit("fault", kind, detail=detail, span=int(span))
            else:
                tracer.emit("fault", kind, detail=detail)

    def counts(self) -> Dict[str, int]:
        """Injected faults by kind (armed markers excluded)."""
        out: Dict[str, int] = {}
        for entry in self.log:
            kind = entry["kind"]
            if kind.endswith("-armed"):
                continue
            out[kind] = out.get(kind, 0) + 1
        return out

    # -- crash machinery -------------------------------------------------------

    def _check_armed_crash(self, ctx) -> None:
        name = ctx.name
        armed = self._armed.get(name)
        if not armed and self._epoch_ns is not None:
            # Native runtime: promote due time-crashes ourselves.
            elapsed = ctx.now_ns() - self._epoch_ns
            for spec in self._time_crashes:
                if spec.component == name and id(spec) not in self._fired and elapsed >= spec.at_ns:
                    self._fired.add(id(spec))
                    self._armed.setdefault(name, []).append(spec)
            armed = self._armed.get(name)
        if armed:
            spec = armed.pop(0)
            detail = f"at_ns={spec.at_ns}"
            self._record(ctx.now_ns(), name, CRASH, detail)
            raise InjectedFault(name, CRASH, detail)

    # -- context hooks (called from ComponentContext.send/receive) -------------

    def on_transfer(self, ctx, required_name: str, target, message) -> Generator:
        """Interpose on one outgoing transfer; returns the delivery verdict."""
        self._check_armed_crash(ctx)
        if message.kind != DATA:
            return DELIVER
        specs = self._transfer_specs.get((ctx.name, required_name))
        if not specs:
            return DELIVER
        verdict = DELIVER
        for spec, stream in specs:
            if spec.kind == DELAY:
                if stream.random() < spec.probability:
                    self._record(
                        ctx.now_ns(), ctx.name, DELAY,
                        f"{required_name} seq={message.seq} +{spec.delay_ns}ns",
                        span=message.span,
                    )
                    yield from ctx.sleep(spec.delay_ns)
            elif spec.kind == CORRUPT:
                if stream.random() < spec.probability:
                    message.payload = _corrupt_value(message.payload, stream)
                    self._record(
                        ctx.now_ns(), ctx.name, CORRUPT,
                        f"{required_name} seq={message.seq}", span=message.span,
                    )
            elif spec.kind == OVERFLOW:
                if ctx._depth_of(target) >= spec.capacity:
                    self._record(
                        ctx.now_ns(), ctx.name, OVERFLOW,
                        f"{required_name} seq={message.seq} capacity={spec.capacity}",
                        span=message.span,
                    )
                    verdict = VERDICT_DROP
            elif spec.kind == DROP:
                if stream.random() < spec.probability:
                    self._record(
                        ctx.now_ns(), ctx.name, DROP,
                        f"{required_name} seq={message.seq}", span=message.span,
                    )
                    verdict = VERDICT_DROP
            elif spec.kind == DUPLICATE:
                if verdict == DELIVER and stream.random() < spec.probability:
                    self._record(
                        ctx.now_ns(), ctx.name, DUPLICATE,
                        f"{required_name} seq={message.seq}", span=message.span,
                    )
                    verdict = VERDICT_DUPLICATE
        return verdict
        yield  # pragma: no cover - keeps this a generator on the no-spec path

    def before_receive(self, ctx, provided_name: str) -> Generator:
        """Interpose before blocking on a receive (crash trigger point)."""
        self._check_armed_crash(ctx)
        return
        yield  # pragma: no cover

    def after_receive(self, ctx, provided_name: str, message) -> Generator:
        """Interpose after a message was taken off the mailbox.

        Crash-at-nth-receive fires *here*: the nth data message has been
        consumed and is lost with the component state -- the harsher, more
        interesting recovery scenario.
        """
        if message.kind != DATA:
            return
        name = ctx.name
        count = self._recv_counts.get(name, 0) + 1
        self._recv_counts[name] = count
        specs = self._receive_specs.get(name)
        if not specs:
            return
        for spec in specs:
            if spec.on_receive != count or id(spec) in self._fired:
                continue
            self._fired.add(id(spec))
            if spec.kind == CRASH:
                detail = f"on_receive={count} ({provided_name} seq={message.seq} lost)"
                self._record(ctx.now_ns(), name, CRASH, detail, span=message.span)
                raise InjectedFault(name, CRASH, detail)
            if spec.kind == STALL:
                self._record(
                    ctx.now_ns(), name, STALL,
                    f"on_receive={count} +{spec.delay_ns}ns", span=message.span,
                )
                yield from ctx.sleep(spec.delay_ns)
