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
from repro.sim.mailbox import Envelope
from repro.sim.resources import Channel
from repro.sim.shard import (
    PROFILE_SCHEMA,
    Shard,
    ShardedSimulation,
    partition_graph,
    repartition_from_profile,
    shard_core_blocks,
    shard_span_source,
)

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
    """Component context over a simulated platform."""

    def __init__(
        self,
        component: Component,
        probe: Optional[ObservationProbe],
        runtime: "SimRuntime",
        clock_offset_ns: int = 0,
    ) -> None:
        super().__init__(component, probe)
        self.runtime = runtime
        self.clock_offset_ns = clock_offset_ns
        self._span_source = runtime.span_source

    def now_ns(self) -> int:
        """Current platform time in nanoseconds."""
        return self.runtime.kernel.now + self.clock_offset_ns

    def compute(self, opclass: str, units: float) -> Generator:
        """Declare computational work (see ComponentContext.compute)."""
        yield Compute(opclass, units)

    def sleep(self, delay_ns: int) -> Generator:
        """Suspend for ``delay_ns`` of virtual time."""
        from repro.sim.process import Timeout

        yield Timeout(int(delay_ns))

    def _transfer(self, target, message: Message) -> Generator:
        yield from self.runtime._transfer(self.component, target, message)

    def _receive_from(self, provided, timeout_ns: Optional[int] = None) -> Generator:
        message = yield from self.runtime._receive(self.component, provided, timeout_ns)
        return message

    def _try_receive_from(self, provided):
        return self.runtime._try_receive(provided)

    def _depth_of(self, provided) -> int:
        binding = provided.binding
        if isinstance(binding, Channel):
            return len(binding)
        return len(self.runtime._data_queue(provided))

    def _alloc(self, nbytes: int, label: str):
        return self.runtime._component_alloc(self.component, nbytes, label)

    def _free(self, handle) -> int:
        return self.runtime._component_free(self.component, handle)

    def log(self, text: str) -> None:
        """Record a debug line in the runtime's log buffer."""
        self.runtime.logs.append((self.runtime.kernel.now, self.component.name, text))


class ShardSimContext(SimContext):
    """A component context bound to one shard's clock and span range.

    ``now_ns`` reads the *shard's* kernel (shards tick independently
    between synchronization points) and span/cause ids come from the
    shard's private range (shard index in the high bits; see
    :func:`repro.sim.shard.shard_span_source`), so merged traces never
    collide."""

    def __init__(
        self,
        component: Component,
        probe: Optional[ObservationProbe],
        runtime: "SimRuntime",
        shard_kernel: Kernel,
        span_source,
        clock_offset_ns: int = 0,
    ) -> None:
        super().__init__(component, probe, runtime, clock_offset_ns)
        self._shard_kernel = shard_kernel
        self._span_source = span_source

    def now_ns(self) -> int:
        """Current time of the owning shard in nanoseconds."""
        return self._shard_kernel.now + self.clock_offset_ns

    def log(self, text: str) -> None:
        """Record a debug line stamped with the shard's clock."""
        self.runtime.logs.append((self._shard_kernel.now, self.component.name, text))


class SimRuntime(Runtime):
    """Shared machinery for both simulated platforms."""

    def __init__(self, kernel: Optional[Kernel] = None) -> None:
        super().__init__()
        self.kernel = kernel or Kernel()
        self.logs: List[Tuple[int, str, str]] = []
        self.makespan_ns: Optional[int] = None
        self._fake_addr = 1 << 20  # synthetic address space for cache modelling

    # -- subclass hooks ----------------------------------------------------------

    def _bind_component(self, cont: ComponentContainer) -> None:
        raise NotImplementedError

    def _spawn_behavior(self, cont: ComponentContainer) -> None:
        raise NotImplementedError

    def _spawn_flow(self, body: Generator, name: str, cont: ComponentContainer):
        """Spawn an infrastructure flow (observation service / observer
        query) that must not appear in the platform's memory accounting."""
        raise NotImplementedError

    def _engine(self):
        raise NotImplementedError

    def _transfer(self, src: Component, target, message: Message) -> Generator:
        raise NotImplementedError

    def _os_adapter(self, cont: ComponentContainer):
        raise NotImplementedError

    def _clock_offset_for(self, cont: ComponentContainer) -> int:
        return 0

    # -- shared transport paths -----------------------------------------------------

    def _transfer_observation(self, target, message: Message) -> Generator:
        """Runtime-owned control channel: cheap, platform-independent."""
        yield Compute("syscall", OBS_CHANNEL_SYSCALLS)
        target.binding.put(message)

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

    def deploy(self, app: Application) -> None:
        """Bind interfaces, build contexts and adapters."""
        self._register(app)
        self._prepare_deploy()
        for cont in self.containers.values():
            self._bind_component(cont)
        for cont in self.containers.values():
            offset = self._clock_offset_for(cont)
            cont.context = self._make_context(cont, cont.probe, offset)
            cont.service_context = self._make_context(cont, None, offset)
            cont.probe.os_adapter = self._os_adapter(cont)
            cont.probe.middleware_adapter = self._mw_adapter(cont)
        self._finish_deploy()

    def _prepare_deploy(self) -> None:
        """Hook before interface binding (the sharded runtime partitions
        the component graph here)."""

    def _finish_deploy(self) -> None:
        """Hook after contexts exist (the sharded runtime derives its
        per-link lookaheads from the bound graph here)."""

    def _make_context(
        self, cont: ComponentContainer, probe: Optional[ObservationProbe], offset: int
    ) -> SimContext:
        """Build one component/service context (sharded runtimes swap in
        per-shard clocks and span-id ranges)."""
        return SimContext(cont.component, probe, self, offset)

    def start(self) -> None:
        """Launch every component's behaviour and observation service."""
        if self.app is None:
            raise RuntimeError_("deploy() an application first")
        for cont in self.containers.values():
            if isinstance(cont.component, ObserverComponent):
                continue  # observer flows are spawned on demand by collect()
            self._launch(cont)
        # The observer still needs its service-side channel bindings even
        # though its behaviour is query-driven.

    def _launch(self, cont: ComponentContainer) -> None:
        self._spawn_behavior(cont)
        cont.service_handle = self._spawn_flow(
            observation_service_behavior(cont.service_context, cont.probe),
            name=f"{cont.component.name}.obsvc",
            cont=cont,
        )

    # -- dynamic reconfiguration ---------------------------------------------------

    def _deploy_dynamic(self, cont: ComponentContainer) -> None:
        self._bind_component(cont)
        offset = self._clock_offset_for(cont)
        cont.context = self._make_context(cont, cont.probe, offset)
        cont.service_context = self._make_context(cont, None, offset)
        cont.probe.os_adapter = self._os_adapter(cont)
        cont.probe.middleware_adapter = self._mw_adapter(cont)

    def _start_dynamic(self, cont: ComponentContainer) -> None:
        self._launch(cont)

    def spawn_controller(self, fn, name: str = "controller"):
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
        return self._spawn_flow(fn(self, cont.context), name=name, cont=cont)

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
        self.kernel.run()
        self.makespan_ns = self.kernel.now
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
            reports = yield from observer.collect(cont.context, plan)
            return (self.kernel.now, reports)

        return self._spawn_flow(flow(), name=f"{observer.name}.query@{delay_ns}", cont=cont)

    def stop(self) -> None:
        """Shut down observation services and release the platform."""
        for cont in self.containers.values():
            if cont.service_handle is not None and cont.service_handle.alive:
                obs = cont.component.provided.get("introspection")
                if obs is not None and isinstance(obs.binding, Channel):
                    obs.binding.put(Message(payload=None, kind=CONTROL, tag="shutdown"))
        self._engine().shutdown()
        self.kernel.run()

    # -- shared binding helpers ---------------------------------------------------------

    def _mw_adapter(self, cont: ComponentContainer):
        """Middleware extras: live inbound queue depths per provided
        interface -- the backlog signal adaptation controllers key on."""

        def extras() -> Dict[str, Any]:
            """Runtime-provided middleware extras (queue depths)."""
            depths = {}
            for prov in cont.component.provided.values():
                if prov.is_observation or prov.binding is None:
                    continue
                depths[prov.name] = len(self._data_queue(prov))
            return {"queue_depths": depths}

        return extras

    # -- component heap (memory-evolution extension) ----------------------------

    def _heap_region(self, cont: ComponentContainer):
        raise NotImplementedError

    def _component_alloc(self, component: Component, nbytes: int, label: str):
        cont = self.container(component.name)
        region = self._heap_region(cont)
        handle = region.alloc(
            nbytes, label=f"{component.name}:{label}", time_ns=self.kernel.now
        )
        heap = cont.extra.setdefault("heap", {})
        heap[handle] = (region, nbytes)
        return handle

    def _component_free(self, component: Component, handle) -> int:
        cont = self.container(component.name)
        heap = cont.extra.get("heap", {})
        try:
            region, nbytes = heap.pop(handle)
        except KeyError:
            raise RuntimeError_(
                f"{component.name!r} freed unknown heap handle {handle!r}"
            ) from None
        region.free(handle, time_ns=self.kernel.now)
        return nbytes

    def _bind_observation_channels(self, cont: ComponentContainer) -> None:
        for prov in cont.component.provided.values():
            if prov.is_observation and prov.binding is None:
                prov.binding = Channel(self.kernel, name=f"obs.{prov.qualified_name}")

    def _next_fake_addr(self, nbytes: int) -> int:
        addr = self._fake_addr
        self._fake_addr += max(nbytes, 64)
        return addr


class SmpSimRuntime(SimRuntime):
    """EMBera over the simulated 16-core Linux NUMA SMP."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        kernel: Optional[Kernel] = None,
        quantum_ns: int = 4_000_000,
    ) -> None:
        super().__init__(kernel)
        self.platform = platform or make_smp16()
        self.quantum_ns = quantum_ns
        self._init_system()
        self._next_core = 0

    def _init_system(self) -> None:
        """Build the OS instance(s); the sharded variant builds one per
        partition over a core block instead."""
        self.system = LinuxSystem(self.kernel, self.platform, quantum_ns=self.quantum_ns)
        self.process = self.system.spawn_process("embera")

    def _engine(self):
        return self.system.engine

    # -- deployment ------------------------------------------------------------

    def _assign_core(self, cont: ComponentContainer) -> int:
        core = cont.component.placement.get("core")
        if core is None:
            core = self._next_core % self.platform.n_cores
            self._next_core += 1
        cont.extra["core"] = core
        cont.extra["node"] = self.platform.node_of_core(core)
        return core

    def _bind_component(self, cont: ComponentContainer) -> None:
        self._assign_core(cont)
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
        if target.is_observation:
            yield from self._transfer_observation(target, message)
            return
        mailbox: SimMailbox = target.binding
        src_core = self.containers[src.name].extra["core"]
        factor = self.platform.copy_factor(src_core, mailbox.node)
        yield Compute("syscall", 1)
        yield Compute("memcpy_byte", message.size_bytes * factor)
        cache = self.platform.cache_of_core(src_core)
        if cache is not None:
            offset = mailbox.written_bytes % max(mailbox.capacity_bytes, 1)
            cache.access_range(mailbox.base_addr + offset, message.size_bytes)
        mailbox.written_bytes += message.size_bytes
        mailbox.channel.put(message)

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


class ShardedSmpSimRuntime(SmpSimRuntime):
    """The SMP runtime partitioned across N conservative shards.

    Deploy-time graph partitioning (user affinity via ``comp.place(
    shard=K)`` / ``comp.place(core=N)``, otherwise a greedy balanced
    min-cut heuristic) maps each component to one shard; each shard owns
    a contiguous block of the platform's cores, a private
    :class:`~repro.sim.kernel.Kernel` and its own
    :class:`~repro.oslinux.system.LinuxSystem` instance.  Every message
    delivery -- data, deposit and observation alike -- is staged as an
    :class:`~repro.sim.mailbox.Envelope` and takes the platform's link
    latency between the endpoint cores; that same latency is the
    conservative lookahead the coordinator synchronizes on, so the
    simulation output is *identical for every shard count* (the link
    latency is a property of hardware placement, not of the partition).

    Not supported in sharded mode (use :class:`SmpSimRuntime`): dynamic
    reconfiguration (``add_component``/``connect_live``/``rebind``) and
    fault-replay/recovery -- both would have to mutate channels across
    shard boundaries mid-run.  Installing a recovery manager is refused
    at install time.
    """

    supports_replay = False

    def __init__(
        self,
        n_shards: int,
        platform: Optional[Platform] = None,
        quantum_ns: int = 4_000_000,
        partition: Optional[Dict[str, int]] = None,
        parallel: bool = False,
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        """``partition`` pins component names to shard indices (wins over
        the heuristic); ``parallel`` runs each synchronization window on
        one OS thread per shard instead of cooperatively.  ``profile`` is
        an observed-traffic document (``repro.profile/v1``, see
        :meth:`profile`): when given, its busy times weight the nodes and
        its message counts weight the edges of the deploy-time partition
        -- the measure -> repartition -> rerun loop."""
        if n_shards < 1:
            raise RuntimeError_(f"need at least one shard, got {n_shards}")
        self.n_shards = int(n_shards)
        self.partition_hint = dict(partition or {})
        self.parallel = parallel
        self.profile_hint = profile
        super().__init__(platform=platform, quantum_ns=quantum_ns)

    def _init_system(self) -> None:
        self._blocks = shard_core_blocks(self.platform.n_cores, self.n_shards)
        self.shards: List[Shard] = []
        self.systems: List[LinuxSystem] = []
        self.processes = []
        for i, cores in enumerate(self._blocks):
            shard = Shard(i)
            system = LinuxSystem(
                shard.kernel, self.platform, quantum_ns=self.quantum_ns, cores=cores
            )
            self.shards.append(shard)
            self.systems.append(system)
            self.processes.append(system.spawn_process(f"embera{i}"))
        self.sim = ShardedSimulation(self.shards)
        self._span_sources = [shard_span_source(i) for i in range(self.n_shards)]
        self._routes: Dict[Any, Tuple[int, int]] = {}  # provided iface -> (shard, core)
        #: Observed per-edge message counts ((src, dst) component names),
        #: fed by _transfer -- the raw material of :meth:`profile` and
        #: the cross-shard traffic gauges.
        self._edge_traffic: Dict[Tuple[str, str], int] = {}
        # Base-class bookkeeping (allocation timestamps, heap regions)
        # rides shard 0; everything delivery- or clock-sensitive is
        # routed per shard below.
        self.kernel = self.shards[0].kernel
        self.system = self.systems[0]
        self.process = self.processes[0]

    def _engine(self):
        return self.systems[0].engine

    def shard_of(self, component_name: str) -> int:
        """The shard a deployed component was partitioned onto."""
        return self.container(component_name).extra["shard"]

    # -- partitioning ----------------------------------------------------------

    def _shard_of_core(self, core: int) -> int:
        for i, block in enumerate(self._blocks):
            if core in block:
                return i
        raise RuntimeError_(f"no core {core} on {self.platform.name}")

    def _prepare_deploy(self) -> None:
        """Partition the sealed graph and place components on cores."""
        names = list(self.containers)
        edges = []
        for cont in self.containers.values():
            for req in cont.component.required.values():
                if req.target is not None:
                    edges.append((cont.component.name, req.target.component.name))
        affinity = dict(self.partition_hint)
        for name, cont in self.containers.items():
            placement = cont.component.placement
            if "shard" in placement:
                affinity[name] = placement["shard"]
            elif "core" in placement and name not in affinity:
                affinity[name] = self._shard_of_core(placement["core"])
        if self.profile_hint is not None:
            assignment = repartition_from_profile(
                names, edges, self.n_shards, self.profile_hint, affinity=affinity
            )
        else:
            assignment = partition_graph(names, edges, self.n_shards, affinity=affinity)
        self._edges = edges
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
            cont.extra["shard"] = shard
            cont.extra["core"] = core
            cont.extra["node"] = self.platform.node_of_core(core)

    def _finish_deploy(self) -> None:
        """Derive routes and per-link lookaheads from the bound graph."""
        for cont in self.containers.values():
            dst_shard = cont.extra["shard"]
            dst_core = cont.extra["core"]
            # Deposits re-enter a component's own mailbox through the
            # same staged path, so every shard always has a self-link.
            self.sim.add_link(
                dst_shard, dst_shard, self.platform.link_latency_ns(dst_core, dst_core)
            )
            for prov in cont.component.provided.values():
                self._routes[prov] = (dst_shard, dst_core)
                for req in prov.connected_from:
                    src_cont = self.containers[req.component.name]
                    self.sim.add_link(
                        src_cont.extra["shard"],
                        dst_shard,
                        self.platform.link_latency_ns(src_cont.extra["core"], dst_core),
                    )

    # -- per-shard deployment --------------------------------------------------

    def _assign_core(self, cont: ComponentContainer) -> int:
        return cont.extra["core"]  # placed during _prepare_deploy

    def _bind_observation_channels(self, cont: ComponentContainer) -> None:
        shard = self.shards[cont.extra["shard"]]
        for prov in cont.component.provided.values():
            if prov.is_observation and prov.binding is None:
                prov.binding = Channel(shard.kernel, name=f"obs.{prov.qualified_name}")

    def _bind_component(self, cont: ComponentContainer) -> None:
        self._bind_observation_channels(cont)
        shard = self.shards[cont.extra["shard"]]
        process = self.processes[shard.index]
        node = cont.extra["node"]
        for prov in cont.component.provided.values():
            if prov.is_observation:
                continue
            process.malloc(
                prov.mailbox_bytes, label=f"{prov.qualified_name}:mailbox", node=node
            )
            prov.binding = SimMailbox(
                Channel(shard.kernel, name=f"mbox.{prov.qualified_name}"),
                node=node,
                capacity_bytes=prov.mailbox_bytes,
                base_addr=self._next_fake_addr(prov.mailbox_bytes),
            )

    def _make_context(
        self, cont: ComponentContainer, probe: Optional[ObservationProbe], offset: int
    ) -> SimContext:
        shard_idx = cont.extra["shard"]
        return ShardSimContext(
            cont.component,
            probe,
            self,
            self.shards[shard_idx].kernel,
            self._span_sources[shard_idx],
            offset,
        )

    def _spawn_behavior(self, cont: ComponentContainer) -> None:
        shard_idx = cont.extra["shard"]
        stack = cont.component.placement.get("stack_bytes", DEFAULT_STACK_BYTES)
        thread = self.processes[shard_idx].pthread_create(
            self._wrap_behavior(cont),
            name=cont.component.name,
            stack_bytes=stack,
            affinity=[cont.extra["core"]],
        )
        cont.handle = thread.sched
        cont.extra["pthread"] = thread

    def _spawn_flow(self, body: Generator, name: str, cont: ComponentContainer):
        return self.systems[cont.extra["shard"]].engine.spawn(body, name=name)

    # -- staged transport ------------------------------------------------------

    def _transfer(self, src: Component, target, message: Message) -> Generator:
        dst_shard_idx, dst_core = self._routes[target]
        edge = (src.name, target.component.name)
        traffic = self._edge_traffic
        traffic[edge] = traffic.get(edge, 0) + 1
        src_cont = self.containers[src.name]
        src_shard = self.shards[src_cont.extra["shard"]]
        src_core = src_cont.extra["core"]
        if target.is_observation:
            yield Compute("syscall", OBS_CHANNEL_SYSCALLS)
            binding = target.binding

            def deliver(binding=binding, message=message):
                binding.put(message)

        else:
            mailbox: SimMailbox = target.binding
            factor = self.platform.copy_factor(src_core, mailbox.node)
            yield Compute("syscall", 1)
            yield Compute("memcpy_byte", message.size_bytes * factor)
            cache = self.platform.cache_of_core(src_core)
            if cache is not None:
                offset = mailbox.written_bytes % max(mailbox.capacity_bytes, 1)
                cache.access_range(mailbox.base_addr + offset, message.size_bytes)

            def deliver(mailbox=mailbox, message=message):
                mailbox.written_bytes += message.size_bytes
                mailbox.channel.put(message)

        send_time = src_shard.kernel.now
        recv_time = send_time + self.platform.link_latency_ns(src_core, dst_core)
        envelope = Envelope(
            recv_time, send_time, message.src, message.src_interface, message.seq, deliver
        )
        dst_shard = self.shards[dst_shard_idx]
        if dst_shard is src_shard:
            dst_shard.stage(envelope)
        else:
            dst_shard.post(envelope)

    def _transfer_observation(self, target, message: Message) -> Generator:
        # Observation messages carry src/iface/seq like any other and the
        # observer may live on a different shard, so they ride the same
        # staged path; _transfer branches on target.is_observation.
        raise RuntimeError_("sharded observation transfers route through _transfer")

    # -- dynamic reconfiguration is unsupported across shards ------------------

    def _deploy_dynamic(self, cont: ComponentContainer) -> None:
        raise RuntimeError_(
            "dynamic reconfiguration is not supported in sharded simulation; "
            "use SmpSimRuntime"
        )

    def rebind(self, *args, **kwargs):
        """Unsupported in sharded mode (channels are shard-bound)."""
        raise RuntimeError_(
            "rebind is not supported in sharded simulation; use SmpSimRuntime"
        )

    def connect_live(self, *args, **kwargs):
        """Unsupported in sharded mode (lookaheads are sealed at deploy)."""
        raise RuntimeError_(
            "connect_live is not supported in sharded simulation; use SmpSimRuntime"
        )

    # -- lifecycle -------------------------------------------------------------

    def _run_sim(self) -> None:
        if self.parallel:
            self.sim.run_parallel()
        else:
            self.sim.run()

    def wait(self) -> None:
        """Run all shards to completion under conservative sync."""
        self._run_sim()
        self.makespan_ns = max(s.kernel.now for s in self.shards)
        stuck = [
            cont.component.name
            for cont in self.containers.values()
            if cont.handle is not None and cont.handle.state != DONE
        ]
        if stuck:
            states = {name: self.containers[name].handle.state for name in stuck}
            raise RuntimeError_(f"components did not finish: {states}")

    # -- observed-traffic profile ----------------------------------------------

    def profile(self) -> Dict[str, Any]:
        """The observed-traffic document of this run (``repro.profile/v1``).

        Per-component CPU busy time plus the per-edge message counts
        recorded by :meth:`_transfer`, in the shape
        :func:`repro.sim.shard.repartition_from_profile` consumes: dump
        it after ``wait()``, feed it back as the ``profile=`` argument
        (or ``repro run --repartition``) and the next run's partition is
        weighted by what this one actually did."""
        received: Dict[str, int] = {}
        for (_src, dst), n in self._edge_traffic.items():
            received[dst] = received.get(dst, 0) + n
        components = {}
        for name, cont in self.containers.items():
            busy = self._busy_ns_of(cont)
            components[name] = {
                "busy_ns": int(busy) if busy is not None else 0,
                "events": received.get(name, 0),
                "shard": cont.extra["shard"],
            }
        edges = [
            {"src": src, "dst": dst, "messages": n}
            for (src, dst), n in sorted(self._edge_traffic.items())
        ]
        return {
            "schema": PROFILE_SCHEMA,
            "workload": "runtime",
            "n_shards": self.n_shards,
            "components": components,
            "edges": edges,
            "shards": [
                {"shard": s.index, "busy_s": s.busy_s} for s in self.shards
            ],
        }

    def stamp_telemetry(self) -> None:
        """Component gauges (via the base class), plus the shard plane:
        per-shard host busy time and the cross-shard cut traffic.  All
        *gauges* -- shard layout is an execution property, not a
        simulation result, so it must stay out of ``metrics_digest``
        (which skips gauges) to keep the shard-invariance contract."""
        super().stamp_telemetry()
        regs = self.metrics
        if not isinstance(regs, list):
            return
        cut: Dict[Tuple[int, int], int] = {}
        for (src, dst), n in self._edge_traffic.items():
            s = self.containers[src].extra["shard"]
            d = self.containers[dst].extra["shard"]
            if s != d:
                cut[(s, d)] = cut.get((s, d), 0) + n
        for k, (shard, reg) in enumerate(zip(self.shards, regs)):
            reg.gauge("shard_busy_seconds", shard=k).set(shard.busy_s, reg.last_ns)
            reg.gauge("shard_sweeps", shard=k).set(self.sim.sweeps, reg.last_ns)
            out = sum(n for (s, _d), n in cut.items() if s == k)
            reg.gauge("shard_cut_messages", shard=k, direction="out").set(out, reg.last_ns)
            inn = sum(n for (_s, d), n in cut.items() if d == k)
            reg.gauge("shard_cut_messages", shard=k, direction="in").set(inn, reg.last_ns)

    def collect(
        self, plan: Optional[Iterable[Tuple[str, str]]] = None
    ) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """Run the observer's query flow across shards; returns reports."""
        if self.app is None or self.app.observer is None:
            raise RuntimeError_("no observer attached to the application")
        observer = self.app.observer
        cont = self.container(observer.name)
        plan = list(plan) if plan is not None else self._default_plan()
        flow = observer.collect(cont.context, plan)
        handle = self._spawn_flow(flow, name=f"{observer.name}.query", cont=cont)
        self._run_sim()
        if handle.state != DONE:
            raise RuntimeError_(f"observer query flow stuck in state {handle.state}")
        return handle.result

    def stop(self) -> None:
        """Shut down observation services on every shard.

        The shutdown control message is *staged* at each service's local
        ``now + 1`` rather than put directly -- host-side puts into a
        shard-owned channel would bypass the deterministic delivery
        order."""
        for i, cont in enumerate(self.containers.values()):
            if cont.service_handle is not None and cont.service_handle.alive:
                obs = cont.component.provided.get("introspection")
                if obs is not None and isinstance(obs.binding, Channel):
                    shard = self.shards[cont.extra["shard"]]
                    now = shard.kernel.now
                    message = Message(payload=None, kind=CONTROL, tag="shutdown")

                    def deliver(binding=obs.binding, message=message):
                        binding.put(message)

                    shard.stage(Envelope(now + 1, now, "", "runtime.shutdown", i, deliver))
        for system in self.systems:
            system.shutdown()
        self._run_sim()


class Sti7200SimRuntime(SimRuntime):
    """EMBera over the simulated STi7200 running OS21 + EMBX."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        kernel: Optional[Kernel] = None,
        quantum_ns: int = 1_000_000,
        enforce_one_component_per_cpu: bool = True,
    ) -> None:
        super().__init__(kernel)
        self.platform = platform or make_sti7200()
        self.system = OS21System(self.kernel, self.platform, quantum_ns=quantum_ns)
        self.embx = EmbxTransport(self.kernel, self.platform.region("sdram"))
        self.enforce_one_component_per_cpu = enforce_one_component_per_cpu
        self._cpu_owner: Dict[int, str] = {}

    def _engine(self):
        return self.system.engine

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
            if self.enforce_one_component_per_cpu and cpu in self._cpu_owner:
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
            yield from self._transfer_observation(target, message)
            return
        yield from self.embx.send(target.binding, message, nbytes=message.size_bytes)

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
        if self.metrics is not None:
            self.embx.stamp_metrics(self.metrics)
