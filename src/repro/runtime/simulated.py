"""Simulated runtimes: EMBera over the modelled platforms.

:class:`SmpSimRuntime` reproduces the paper's Linux implementation
(section 4): an EMBera application is a Linux user process, a component
is a data structure plus a POSIX thread, a provided interface is a FIFO
mailbox in the process address space, and a connection is a pointer.

:class:`Sti7200SimRuntime` reproduces the OS21 implementation
(section 5): a component is an OS21 task pinned to one CPU ("the current
implementation supports one component per CPU"), a provided interface is
an EMBX distributed object in shared SDRAM, and send/receive map to
``EMBX_Send`` / ``EMBX_Receive``.

Observation fidelity notes
--------------------------
- Observation interfaces ride a runtime-owned control channel (not the
  data transports).  This matches the paper's memory accounting: Fetch
  shows a bare 8 392 kB stack and IDCT shows exactly one 25 kB
  distributed object, so the default ``introspection`` pair cannot be
  consuming mailbox/EMBX memory.
- The OS-level execution-time answer differs per platform exactly as in
  the paper: gettimeofday wall time on Linux (Table 1) vs ``task_time``
  CPU time on OS21 (Table 3).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.core.application import Application
from repro.core.component import Component
from repro.core.context import ComponentContext
from repro.core.errors import DeadlineError
from repro.core.messages import CONTROL, Message
from repro.core.observation import ObservationProbe, observation_service_behavior
from repro.core.observer import ObserverComponent
from repro.embx.transport import DEFAULT_OBJECT_BYTES, EmbxTimeout, EmbxTransport
from repro.hw.platform import Platform
from repro.hw.smp16 import make_smp16
from repro.hw.sti7200 import make_sti7200
from repro.oslinux.system import DEFAULT_STACK_BYTES, LinuxSystem
from repro.os21.system import DEFAULT_TASK_BYTES, OS21System
from repro.runtime.base import ComponentContainer, Runtime, RuntimeError_
from repro.sim.executor import Compute, DONE
from repro.sim.kernel import Kernel
from repro.sim.resources import Channel
from repro.sim.shard import partition_graph, shard_core_blocks

#: Cost charged (per op) for the runtime-owned observation channel.
OBS_CHANNEL_SYSCALLS = 1


class SimMailbox:
    """The Linux-implementation provided-interface binding: a FIFO plus
    the NUMA node its buffer lives on."""

    __slots__ = ("channel", "node", "capacity_bytes", "written_bytes", "base_addr")

    def __init__(self, channel: Channel, node: int, capacity_bytes: int, base_addr: int) -> None:
        self.channel = channel
        self.node = node
        self.capacity_bytes = capacity_bytes
        self.written_bytes = 0
        self.base_addr = base_addr


class SimContext(ComponentContext):
    """Component context over a simulated platform.

    The context reads the runtime's one kernel and draws span ids from
    its one span counter; every timestamp the context hands out --
    probe, trace, telemetry, heap timeline, log -- reads that kernel's
    clock."""

    def __init__(
        self,
        component: Component,
        probe: Optional[ObservationProbe],
        runtime: "SimRuntime",
        clock_offset_ns: int = 0,
    ) -> None:
        super().__init__(component, probe)
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.clock_offset_ns = clock_offset_ns
        self._span_source = runtime.span_source

    def now_ns(self) -> int:
        """Current platform time in nanoseconds."""
        return self.kernel.now + self.clock_offset_ns

    def compute(self, opclass: str, units: float) -> Generator:
        """Declare computational work (see ComponentContext.compute)."""
        yield Compute(opclass, units)

    def sleep(self, delay_ns: int) -> Generator:
        """Suspend for ``delay_ns`` of virtual time."""
        from repro.sim.process import Timeout

        yield Timeout(int(delay_ns))

    def _transfer(self, target, message: Message) -> Generator:
        return self.runtime._transfer(self.component, target, message)

    def _receive_from(self, provided, timeout_ns: Optional[int] = None) -> Generator:
        return self.runtime._receive(self.component, provided, timeout_ns)

    def _try_receive_from(self, provided):
        return self.runtime._try_receive(provided)

    def _depth_of(self, provided) -> int:
        binding = provided.binding
        if isinstance(binding, Channel):
            return len(binding)
        return len(self.runtime._data_queue(provided))

    def _alloc(self, nbytes: int, label: str):
        return self.runtime._component_alloc(self.component, nbytes, label, self.kernel.now)

    def _free(self, handle) -> int:
        return self.runtime._component_free(self.component, handle, self.kernel.now)

    def log(self, text: str) -> None:
        """Record a debug line in the runtime's log buffer."""
        self.runtime.logs.append((self.kernel.now, self.component.name, text))


class SimRuntime(Runtime):
    """Shared machinery for both simulated platforms."""

    def __init__(self) -> None:
        super().__init__()
        self.logs: List[Tuple[int, str, str]] = []
        self.makespan_ns: Optional[int] = None
        self._fake_addr = 1 << 20  # synthetic address space for cache modelling

    # -- subclass hooks ----------------------------------------------------------

    def _spawn_behavior(self, cont: ComponentContainer) -> None:
        raise NotImplementedError

    def _spawn_flow(self, body: Generator, name: str, cont: ComponentContainer):
        """Spawn an infrastructure flow (observation service / observer
        query) that must not appear in the platform's memory accounting."""
        raise NotImplementedError

    def _transfer(self, src: Component, target, message: Message) -> Generator:
        raise NotImplementedError

    def _os_adapter(self, cont: ComponentContainer):
        raise NotImplementedError

    def _clock_offset_for(self, cont: ComponentContainer) -> int:
        return 0

    # -- shared transport paths -----------------------------------------------------

    def _receive(self, dst: Component, provided, timeout_ns: Optional[int] = None) -> Generator:
        binding = provided.binding
        if binding is None:
            raise RuntimeError_(f"interface {provided.qualified_name} has no binding")
        if isinstance(binding, Channel):  # observation channel
            if timeout_ns is None:
                message = yield from binding.get()
            else:
                ok, message = yield from binding.get_with_deadline(timeout_ns)
                if not ok:
                    raise DeadlineError(dst.name, provided.name, timeout_ns)
            yield Compute("syscall", OBS_CHANNEL_SYSCALLS)
            return message
        message = yield from self._receive_data(dst, provided, timeout_ns)
        return message

    def _receive_data(
        self, dst: Component, provided, timeout_ns: Optional[int] = None
    ) -> Generator:
        raise NotImplementedError

    def _try_receive(self, provided):
        binding = provided.binding
        queue = binding if isinstance(binding, Channel) else self._data_queue(provided)
        ok, message = queue.try_get()
        return message if ok else None

    def _data_queue(self, provided) -> Channel:
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------------------

    def _build_contexts(self, cont: ComponentContainer) -> None:
        offset = self._clock_offset_for(cont)
        cont.context = SimContext(cont.component, cont.probe, self, offset)
        cont.service_context = SimContext(cont.component, None, self, offset)
        cont.probe.os_adapter = self._os_adapter(cont)
        cont.probe.middleware_adapter = self._mw_adapter(cont)

    def _launch(self, cont: ComponentContainer) -> None:
        self._spawn_behavior(cont)
        cont.service_handle = self._spawn_flow(
            observation_service_behavior(cont.service_context, cont.probe),
            name=f"{cont.component.name}.obsvc",
            cont=cont,
        )

    # -- dynamic reconfiguration ---------------------------------------------------

    def spawn_controller(self, fn):
        """Run a reconfiguration/monitoring flow inside the simulation.

        ``fn(runtime, observer_ctx)`` must be a generator: it may sleep
        (``yield Timeout(ns)``), collect observations
        (``yield from observer.collect(observer_ctx, plan)``) and call
        :meth:`add_component` / :meth:`rebind` synchronously -- the
        observer-in-the-loop adaptation the paper's observation data
        enables.  Returns the flow handle (``.result`` after ``wait()``).
        """
        if self.app is None or self.app.observer is None:
            raise RuntimeError_("controllers need a deployed app with an observer")
        cont = self.container(self.app.observer.name)
        return self._spawn_flow(fn(self, cont.context), name="controller", cont=cont)

    def _wrap_behavior(self, cont: ComponentContainer) -> Generator:
        component, probe, ctx = cont.component, cont.probe, cont.context
        probe.started_at_us = ctx.now_us()
        self._mark_running(component)
        try:
            result = yield from self._behavior_body(cont)
        except BaseException:
            probe.ended_at_us = ctx.now_us()
            self._mark_stopped(component, failed=True)
            raise
        probe.ended_at_us = ctx.now_us()
        self._mark_stopped(component)
        return result

    def wait(self) -> None:
        """Run/block until all functional behaviours finish."""
        self.makespan_ns = self.kernel.run()
        stuck = [
            cont.component.name
            for cont in self.containers.values()
            if cont.handle is not None and cont.handle.state != DONE
        ]
        if stuck:
            states = {
                name: self.containers[name].handle.state for name in stuck
            }
            raise RuntimeError_(f"components did not finish: {states}")

    def collect(
        self, plan: Optional[Iterable[Tuple[str, str]]] = None
    ) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """Run the observer's query flow; returns keyed reports."""
        if self.app is None or self.app.observer is None:
            raise RuntimeError_("no observer attached to the application")
        observer = self.app.observer
        cont = self.container(observer.name)
        plan = list(plan) if plan is not None else self._default_plan()
        flow = observer.collect(cont.context, plan)
        handle = self._spawn_flow(flow, name=f"{observer.name}.query", cont=cont)
        self.kernel.run()
        if handle.state != DONE:
            raise RuntimeError_(f"observer query flow stuck in state {handle.state}")
        return handle.result

    def schedule_collect(self, delay_ns: int, plan: Optional[Iterable[Tuple[str, str]]] = None):
        """Schedule an observation sweep at a *virtual* instant.

        Call between ``deploy()`` and ``wait()``.  Returns the query-flow
        handle; after ``wait()`` its ``result`` is ``(time_ns, reports)``
        with the mid-run snapshot the observer gathered -- the on-line
        monitoring use-case of the paper's dynamic-configuration
        discussion (section 4.4).
        """
        if self.app is None or self.app.observer is None:
            raise RuntimeError_("no observer attached to the application")
        observer = self.app.observer
        cont = self.container(observer.name)
        plan = list(plan) if plan is not None else self._default_plan()

        def flow():
            """The scheduled observation query flow."""
            from repro.sim.process import Timeout

            yield Timeout(delay_ns)
            ctx = cont.context
            reports = yield from observer.collect(ctx, plan)
            return (ctx.kernel.now, reports)

        return self._spawn_flow(flow(), name=f"{observer.name}.query@{delay_ns}", cont=cont)

    def stop(self) -> None:
        """Shut down observation services and release the platform."""
        for cont in self.containers.values():
            if cont.service_handle is not None and cont.service_handle.alive:
                obs = cont.component.provided.get("introspection")
                if obs is not None and isinstance(obs.binding, Channel):
                    obs.binding.put(Message(payload=None, kind=CONTROL, tag="shutdown"))
        self.system.shutdown()
        self.kernel.run()

    # -- component heap (memory-evolution extension) ----------------------------

    def _heap_region(self, cont: ComponentContainer):
        raise NotImplementedError

    def _component_alloc(self, component: Component, nbytes: int, label: str, time_ns: int):
        cont = self.container(component.name)
        region = self._heap_region(cont)
        handle = region.alloc(nbytes, label=f"{component.name}:{label}", time_ns=time_ns)
        heap = cont.extra.setdefault("heap", {})
        heap[handle] = (region, nbytes)
        return handle

    def _component_free(self, component: Component, handle, time_ns: int) -> int:
        cont = self.container(component.name)
        heap = cont.extra.get("heap", {})
        try:
            region, nbytes = heap.pop(handle)
        except KeyError:
            raise RuntimeError_(
                f"{component.name!r} freed unknown heap handle {handle!r}"
            ) from None
        region.free(handle, time_ns=time_ns)
        return nbytes

    # -- shared binding helpers ---------------------------------------------------------

    def _bind_observation_channels(self, cont: ComponentContainer) -> None:
        for prov in cont.component.provided.values():
            if prov.is_observation and prov.binding is None:
                prov.binding = Channel(self.kernel, name=f"obs.{prov.qualified_name}")

    def _next_fake_addr(self, nbytes: int) -> int:
        addr = self._fake_addr
        self._fake_addr += max(nbytes, 64)
        return addr


class SmpSimRuntime(SimRuntime):
    """EMBera over the simulated 16-core Linux NUMA SMP: one
    :class:`~repro.oslinux.system.LinuxSystem` on one
    :class:`~repro.sim.kernel.Kernel`, running the application as the
    paper's one EMBera process, ``embera0``.

    ``shards`` only places components.  Deploy-time graph partitioning
    (user affinity via ``comp.place(shard=K)`` / ``comp.place(core=N)``,
    otherwise the static unit-weight min-cut heuristic of
    :func:`~repro.sim.shard.partition_graph`) maps each component to one
    shard, once: the placement is a function of the declared graph
    alone, never of observed traffic.  Each shard owns a contiguous
    block of the platform's cores, the component's thread is pinned to
    a core of its shard's block, ``extra["shard"]`` records the shard and
    the ``shard_cut_messages`` gauges count the messages that cross the
    cut.  The OS, the process, the span counter, the trace buffer and
    the telemetry registry exist once per runtime, and every message is
    delivered at once (a connection is a pointer), so under pinned
    placement the output is *identical for every shard count*.  A
    component added after deploy takes the next core and the shard that
    owns that core.
    """

    def __init__(
        self,
        platform: Optional[Platform] = None,
        quantum_ns: int = 4_000_000,
        shards: int = 1,
    ) -> None:
        if shards < 1:
            raise RuntimeError_(f"need at least one shard, got {shards}")
        super().__init__()
        self.platform = platform or make_smp16()
        self.quantum_ns = quantum_ns
        self.n_shards = int(shards)
        self._blocks = shard_core_blocks(self.platform.n_cores, self.n_shards)
        self.kernel = Kernel()
        self.system = LinuxSystem(self.kernel, self.platform, quantum_ns=quantum_ns)
        self.process = self.system.spawn_process("embera0")
        self._next_core = 0
        #: Cross-shard message counts per ``(src_shard, dst_shard)``
        #: pair, fed by _transfer -- the ``shard_cut_messages`` gauges.
        self._cut_traffic: Dict[Tuple[int, int], int] = {}

    def shard_of(self, component_name: str) -> int:
        """The shard a deployed component was partitioned onto."""
        return self.container(component_name).extra["shard"]

    # -- deployment ------------------------------------------------------------

    def _shard_of_core(self, core: int) -> int:
        for i, block in enumerate(self._blocks):
            if core in block:
                return i
        raise RuntimeError_(f"no core {core} on {self.platform.name}")

    def _register(self, app: Application) -> None:
        """Register the sealed graph, partition it and place every
        component on a core of its shard's block."""
        super()._register(app)
        names = list(self.containers)
        edges = []
        for cont in self.containers.values():
            for req in cont.component.required.values():
                if req.target is not None:
                    edges.append((cont.component.name, req.target.component.name))
        affinity: Dict[str, int] = {}
        for name, cont in self.containers.items():
            placement = cont.component.placement
            if "shard" in placement:
                affinity[name] = placement["shard"]
            elif "core" in placement:
                affinity[name] = self._shard_of_core(placement["core"])
        assignment = partition_graph(names, edges, self.n_shards, affinity=affinity)
        next_slot = [0] * self.n_shards
        for name in names:
            cont = self.containers[name]
            shard = assignment[name]
            block = self._blocks[shard]
            core = cont.component.placement.get("core")
            if core is None:
                core = block[next_slot[shard] % len(block)]
                next_slot[shard] += 1
            elif core not in block:
                raise RuntimeError_(
                    f"{name!r} pinned to core {core}, outside shard {shard}'s "
                    f"cores {block}"
                )
            self._place(cont, shard, core)
        self._next_core = sum(next_slot)

    def _place(self, cont: ComponentContainer, shard: int, core: int) -> None:
        cont.extra["shard"] = shard
        cont.extra["core"] = core
        cont.extra["node"] = self.platform.node_of_core(core)

    def _bind_component(self, cont: ComponentContainer) -> None:
        if "core" not in cont.extra:  # added after deploy
            core = cont.component.placement.get("core")
            if core is None:
                core = self._next_core % self.platform.n_cores
                self._next_core += 1
            self._place(cont, self._shard_of_core(core), core)
        self._bind_observation_channels(cont)
        node = cont.extra["node"]
        for prov in cont.component.provided.values():
            if prov.is_observation:
                continue
            self.process.malloc(
                prov.mailbox_bytes, label=f"{prov.qualified_name}:mailbox", node=node
            )
            prov.binding = SimMailbox(
                Channel(self.kernel, name=f"mbox.{prov.qualified_name}"),
                node=node,
                capacity_bytes=prov.mailbox_bytes,
                base_addr=self._next_fake_addr(prov.mailbox_bytes),
            )

    def _spawn_behavior(self, cont: ComponentContainer) -> None:
        stack = cont.component.placement.get("stack_bytes", DEFAULT_STACK_BYTES)
        thread = self.process.pthread_create(
            self._wrap_behavior(cont),
            name=cont.component.name,
            stack_bytes=stack,
            affinity=[cont.extra["core"]],
        )
        cont.handle = thread.sched
        cont.extra["pthread"] = thread

    def _spawn_flow(self, body: Generator, name: str, cont: ComponentContainer):
        # Infrastructure flows bypass pthread accounting (no stack charge).
        return self.system.engine.spawn(body, name=name)

    # -- transport ------------------------------------------------------------------

    def _transfer(self, src: Component, target, message: Message) -> Generator:
        src_cont = self.containers[src.name]
        if target.is_observation:
            # Runtime-owned control channel: cheap, platform-independent.
            yield Compute("syscall", OBS_CHANNEL_SYSCALLS)
            self._count_cut(src_cont, target)
            target.binding.put(message)
            return
        mailbox: SimMailbox = target.binding
        src_core = src_cont.extra["core"]
        platform = self.platform
        model = platform.cores[src_core]
        factor = platform.copy_factor(src_core, mailbox.node)
        # One command for the syscall and the copy into the mailbox.  Each
        # part rounds on its own, so the charge equals pricing the two
        # operations separately.
        yield Compute(
            "ns",
            model.cost_ns("syscall", 1) + model.cost_ns("memcpy_byte", message.size_bytes * factor),
        )
        cache = platform.cache_of_core(src_core)
        if cache is not None:
            offset = mailbox.written_bytes % max(mailbox.capacity_bytes, 1)
            cache.access_range(mailbox.base_addr + offset, message.size_bytes)
        self._count_cut(src_cont, target)
        mailbox.written_bytes += message.size_bytes
        mailbox.channel.put(message)

    def _count_cut(self, src_cont: ComponentContainer, target) -> None:
        """Count a delivery that crosses the shard cut."""
        src_shard = src_cont.extra["shard"]
        dst_shard = self.containers[target.component.name].extra["shard"]
        if src_shard != dst_shard:
            pair = (src_shard, dst_shard)
            self._cut_traffic[pair] = self._cut_traffic.get(pair, 0) + 1

    def _receive_data(
        self, dst: Component, provided, timeout_ns: Optional[int] = None
    ) -> Generator:
        mailbox: SimMailbox = provided.binding
        if timeout_ns is None:
            message = yield from mailbox.channel.get()
        else:
            ok, message = yield from mailbox.channel.get_with_deadline(timeout_ns)
            if not ok:
                raise DeadlineError(dst.name, provided.name, timeout_ns)
        # The receiver copies the message out of the mailbox; the mailbox
        # is homed on the receiver's node, so no NUMA factor applies.
        yield Compute("memcpy_byte", message.size_bytes)
        dst_core = self.containers[dst.name].extra["core"]
        cache = self.platform.cache_of_core(dst_core)
        if cache is not None:
            cache.access_range(mailbox.base_addr, message.size_bytes)
        return message

    def _data_queue(self, provided) -> Channel:
        return provided.binding.channel

    def _requeue(self, provided, message: Message) -> None:
        # Replays skip the send-side copy/cache costs: the bytes already
        # sit in the mailbox buffer from the original transfer.
        provided.binding.channel.put_front(message)

    def _heap_region(self, cont: ComponentContainer):
        return self.system.node_region(cont.extra["node"])

    # -- observation adapters --------------------------------------------------------

    def _os_adapter(self, cont: ComponentContainer):
        def report() -> Dict[str, Any]:
            """Build the report dict for one observation level."""
            comp = cont.component
            probe = cont.probe
            data: Dict[str, Any] = {}
            if probe.started_at_us is not None and probe.ended_at_us is not None:
                # gettimeofday wall-clock semantics (paper section 4.2).
                data["exec_time_us"] = probe.ended_at_us - probe.started_at_us
            thread = cont.extra.get("pthread")
            stack = thread.attr_getstacksize() if thread is not None else 0
            iface = comp.interface_bytes()
            data["stack_bytes"] = stack
            data["interface_bytes"] = iface
            data["memory_kb"] = (stack + iface) / 1024
            if cont.handle is not None:
                data["cpu_time_us"] = cont.handle.cpu_time_ns // 1_000
            core = cont.extra.get("core")
            cache = self.platform.cache_of_core(core) if core is not None else None
            if cache is not None:
                data["cache"] = cache.stats.snapshot()
            return data

        return report

    def _busy_ns_of(self, cont: ComponentContainer) -> Optional[int]:
        """Busy time is the simulated thread's accumulated CPU time --
        the same source the OS-level ``cpu_time_us`` report uses."""
        return cont.handle.cpu_time_ns if cont.handle is not None else None

    def stamp_telemetry(self) -> None:
        """Component gauges (via the base class), plus the cross-shard
        cut traffic when there is more than one shard.  *Gauges* --
        shard layout is an execution property, not a simulation result,
        so it must stay out of ``metrics_digest`` (which skips gauges)
        to keep the shard-invariance contract."""
        super().stamp_telemetry()
        if self.n_shards == 1:
            return
        reg = self.metrics
        cut = self._cut_traffic
        for k in range(self.n_shards):
            out = sum(n for (s, _d), n in cut.items() if s == k)
            reg.gauge("shard_cut_messages", shard=k, direction="out").set(out, reg.last_ns)
            inn = sum(n for (_s, d), n in cut.items() if d == k)
            reg.gauge("shard_cut_messages", shard=k, direction="in").set(inn, reg.last_ns)


class ShardedSmpSimRuntime(SmpSimRuntime):
    """:class:`SmpSimRuntime` with the shard count first:
    ``ShardedSmpSimRuntime(4)`` is ``SmpSimRuntime(shards=4)``."""

    def __init__(self, n_shards: int) -> None:
        super().__init__(shards=n_shards)


class Sti7200SimRuntime(SimRuntime):
    """EMBera over the simulated STi7200 running OS21 + EMBX, one
    component per CPU."""

    def __init__(self) -> None:
        super().__init__()
        self.kernel = Kernel()
        self.platform = make_sti7200()
        self.system = OS21System(self.kernel, self.platform)
        self.embx = EmbxTransport(self.kernel, self.platform.region("sdram"))
        self._cpu_owner: Dict[int, str] = {}

    # -- deployment -------------------------------------------------------------

    def _assign_cpu(self, cont: ComponentContainer) -> int:
        comp = cont.component
        if isinstance(comp, ObserverComponent):
            cpu = comp.placement.get("cpu", 0)  # observer rides the ST40
        else:
            cpu = comp.placement.get("cpu")
            if cpu is None:
                raise RuntimeError_(
                    f"component {comp.name!r} needs a cpu placement on sti7200 "
                    "(one binary per CPU); use comp.place(cpu=N)"
                )
            if cpu in self._cpu_owner:
                raise RuntimeError_(
                    f"cpu {cpu} already runs {self._cpu_owner[cpu]!r}: the OS21 "
                    "implementation supports one component per CPU"
                )
            self._cpu_owner[cpu] = comp.name
        if not 0 <= cpu < self.platform.n_cores:
            raise RuntimeError_(f"no cpu {cpu} on {self.platform.name}")
        cont.extra["cpu"] = cpu
        return cpu

    def _bind_component(self, cont: ComponentContainer) -> None:
        self._assign_cpu(cont)
        self._bind_observation_channels(cont)
        cpu = cont.extra["cpu"]
        for prov in cont.component.provided.values():
            if prov.is_observation:
                continue
            size = cont.component.placement.get("object_bytes", DEFAULT_OBJECT_BYTES)
            prov.binding = self.embx.create_object(
                prov.qualified_name, owner_cpu=cpu, size_bytes=size
            )

    def _spawn_behavior(self, cont: ComponentContainer) -> None:
        comp = cont.component
        task = self.system.task_create(
            self._wrap_behavior(cont),
            name=comp.name,
            cpu=cont.extra["cpu"],
            priority=comp.placement.get("priority", 5),
            task_bytes=comp.placement.get("task_bytes", DEFAULT_TASK_BYTES),
        )
        cont.handle = task.sched
        cont.extra["task"] = task

    def _spawn_flow(self, body: Generator, name: str, cont: ComponentContainer):
        # Observation flows share the component's CPU at lower priority so
        # they never perturb the behaviour's schedule; the observer query
        # flow runs at high priority to drain replies promptly.
        cpu = cont.extra.get("cpu", 0)
        priority = 9 if isinstance(cont.component, ObserverComponent) else 1
        return self.system.engine.spawn(body, name=name, priority=priority, affinity=[cpu])

    def _clock_offset_for(self, cont: ComponentContainer) -> int:
        # time_now is per-CPU local time (paper section 5.2).
        return self.system.clock_offsets_ns[cont.extra.get("cpu", 0)]

    # -- transport -----------------------------------------------------------------

    def _transfer(self, src: Component, target, message: Message) -> Generator:
        if target.is_observation:
            # Runtime-owned control channel: cheap, platform-independent.
            yield Compute("syscall", OBS_CHANNEL_SYSCALLS)
            target.binding.put(message)
            return
        model = self.platform.cores[self.containers[src.name].extra["cpu"]]
        yield from self.embx.send(target.binding, message, message.size_bytes, model)

    def _receive_data(
        self, dst: Component, provided, timeout_ns: Optional[int] = None
    ) -> Generator:
        try:
            payload, _nbytes = yield from self.embx.receive(provided.binding, timeout_ns)
        except EmbxTimeout:
            raise DeadlineError(dst.name, provided.name, timeout_ns) from None
        return payload

    def _data_queue(self, provided) -> Channel:
        return provided.binding.queue

    def _requeue(self, provided, message: Message) -> None:
        provided.binding.requeue(message, message.size_bytes)

    def _heap_region(self, cont: ComponentContainer):
        # Tasks allocate from their CPU's local memory: ST231s from their
        # 1 MB SRAM (so oversized allocations fail realistically), the
        # ST40 from SDRAM.
        return self.system.local_region_of_cpu(cont.extra["cpu"])

    # -- observation adapters ----------------------------------------------------------

    def _os_adapter(self, cont: ComponentContainer):
        def report() -> Dict[str, Any]:
            """Build the report dict for one observation level."""
            comp = cont.component
            data: Dict[str, Any] = {}
            task = cont.extra.get("task")
            if task is not None:
                # OS21 task_time: CPU time, not wall time (Table 3).
                data["exec_time_us"] = self.system.task_time_us(task)
                data["task_bytes"] = task.task_bytes
            objects = sum(
                p.binding.size_bytes
                for p in comp.provided.values()
                if not p.is_observation and p.binding is not None
            )
            data["object_bytes"] = objects
            data["memory_kb"] = (data.get("task_bytes", 0) + objects) / 1024
            if cont.handle is not None:
                data["cpu_time_us"] = cont.handle.cpu_time_ns // 1_000
            cpu = cont.extra.get("cpu")
            if cpu is not None:
                data["interrupts"] = self.embx.interrupts_by_cpu.get(cpu, 0)
            data["embx_objects"] = {
                p.binding.name: {
                    "sends": p.binding.sends,
                    "receives": p.binding.receives,
                    "peak_depth": p.binding.peak_depth,
                }
                for p in comp.provided.values()
                if not p.is_observation and p.binding is not None
            }
            return data

        return report

    def _busy_ns_of(self, cont: ComponentContainer) -> Optional[int]:
        """OS21 task_time is CPU time (Table 3), in microseconds."""
        task = cont.extra.get("task")
        if task is None:
            return None
        return self.system.task_time_us(task) * 1_000

    def stamp_telemetry(self) -> None:
        """Busy time and queue depths, plus the EMBX transport's
        per-distributed-object traffic gauges."""
        super().stamp_telemetry()
        self.embx.stamp_metrics(self.metrics)
