"""The EMBera observation layer.

Paper section 3.3: "MPSoC observation has to take into account at least
three levels: the system, the middleware and the application level."

- **OS level** -- component execution time and memory occupation.  The
  numbers come from the runtime (gettimeofday / task_time, stack size,
  interface structures), exposed through an adapter callable so each
  platform implements the same query its own way (sections 4.2 / 5.2).
- **Middleware level** -- execution times of the ``send`` and ``receive``
  primitives, recorded by interposition in the component context.
- **Application level** -- component structure (interface listing) and
  communication-operation counters.

A probe is attached per component by the runtime; behaviour code never
sees it.  Counters for Table 2 count *data* messages only -- control
(end-of-stream) and observation traffic are infrastructure, not
application communication.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.core.errors import ObservationError
from repro.core.messages import DATA, OBSERVATION, Message
from repro.metrics import Counter, Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.component import Component

OS_LEVEL = "os"
MIDDLEWARE_LEVEL = "middleware"
APPLICATION_LEVEL = "application"

LEVELS = (OS_LEVEL, MIDDLEWARE_LEVEL, APPLICATION_LEVEL)

#: Record opcodes (first element of a probe record).
_SEND = 0
_RECV = 1


@dataclass(frozen=True)
class ObservationRequest:
    """Sent to a component's observation provided interface."""

    level: str
    reply_tag: str = ""

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ObservationError(f"unknown observation level {self.level!r}")


@dataclass(frozen=True)
class ObservationReply:
    """Returned through the component's observation required interface."""

    component: str
    level: str
    data: Dict[str, Any]
    reply_tag: str = ""


class ObservationProbe:
    """Per-component accumulator fed by context interposition.

    Every component is observed at all three levels, and every
    middleware operation is timed.
    """

    def __init__(self, component: "Component") -> None:
        self.component = component
        #: One record per middleware operation, ``(op, iface,
        #: duration_ns, latency_ns, size_bytes, t_ns)``:
        #: ``size_bytes`` is -1 for control messages, ``latency_ns`` -1
        #: when unknown, and ``t_ns`` is the telemetry registry's
        #: clock when it was recorded (0 without telemetry).  The hot path
        #: appends one tuple; :meth:`_fold` feeds every plane that reads
        #: it -- the timers below and, when attached, the telemetry
        #: instruments.  Appending to a list is atomic under the GIL, so
        #: native-runtime threads append without a lock.
        self._records: list = []
        self._fold_lock = threading.Lock()
        self._send_timer = Timer(f"{component.name}.send")
        self._recv_timer = Timer(f"{component.name}.receive")
        #: End-to-end message latency (sender timestamp -> delivery).
        #: On OS21 the sender/receiver clocks are *local* per CPU, so this
        #: inherits their skew -- faithfully to the platform (sec. 5.2).
        self._latency_timer = Timer(f"{component.name}.latency")
        self._send_timers_by_iface: Dict[str, Timer] = {}
        self._recv_timers_by_iface: Dict[str, Timer] = {}
        self.data_sends = Counter(f"{component.name}.sends")
        self.data_receives = Counter(f"{component.name}.receives")
        self.deposits = Counter(f"{component.name}.deposits")
        self.bytes_sent = 0
        self.bytes_received = 0
        self.started_at_us: Optional[int] = None
        self.ended_at_us: Optional[int] = None
        # Heap tracking (memory-evolution extension, paper section 6).
        self.heap_bytes = 0
        self.heap_peak = 0
        self.heap_timeline: list = []  # (time_us, heap_bytes) samples
        # Robustness extension: fault, restart and recovery accounting.
        # Fed by the fault injector and the supervisor (never by the
        # behaviour), reported next to the Table-2 counters.
        self.fault_counts: Dict[str, int] = {}
        self.restarts = 0
        self.recovery_ns: list = []  # per-restart downtime samples (MTTR)
        # Exactly-once recovery accounting (see repro.recovery): committed
        # checkpoints and their cost, messages replayed to this component
        # after a restart, duplicates discarded by sequence dedup.
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        self.checkpoint_ns: list = []  # per-checkpoint capture cost samples
        self.replays = 0
        self.dedups = 0
        #: Runtime-provided OS-level report: ``fn() -> dict``.
        self.os_adapter: Optional[Callable[[], Dict[str, Any]]] = None
        #: Runtime-provided middleware extras (e.g. live queue depths).
        self.middleware_adapter: Optional[Callable[[], Dict[str, Any]]] = None
        #: Live metrics plane, attached by
        #: :func:`repro.metrics.telemetry.enable_telemetry`.
        self.telemetry = None

    # -- folding ------------------------------------------------------------

    def _fold(self) -> None:
        """Fold the appended records into the timers and the telemetry.

        Runs before every read, and from the registry's window cut
        (:meth:`~repro.metrics.telemetry.MetricsRegistry.finish`); each
        record lands in the window of its own ``t_ns``.  Snapshot then
        delete under a lock only folds take: a record a concurrent
        native-runtime thread appends mid-fold stays for the next fold,
        and two folds never take the same record.
        """
        with self._fold_lock:
            buf = self._records
            n = len(buf)
            if not n:
                return
            chunk = buf[:n]
            del buf[:n]
            send_timer = self._send_timer
            recv_timer = self._recv_timer
            latency_timer = self._latency_timer
            by_send = self._send_timers_by_iface
            by_recv = self._recv_timers_by_iface
            for op, iface, dur, latency, _size, _t in chunk:
                if op == _SEND:
                    send_timer.record(dur)
                    timer = by_send.get(iface)
                    if timer is None:
                        timer = by_send[iface] = Timer(iface)
                else:
                    recv_timer.record(dur)
                    if latency >= 0:
                        latency_timer.record(latency)
                    timer = by_recv.get(iface)
                    if timer is None:
                        timer = by_recv[iface] = Timer(iface)
                timer.record(dur)
            tel = self.telemetry
            if tel is None:
                return
            # One batch per (operation, interface, window): the time of
            # its first record, every duration, and the sizes and known
            # delivery latencies of its data messages.  Latency is a
            # *data* metric: control messages (e.g. end-of-stream
            # markers) queue behind the whole stream and would dominate
            # the tail with meaningless outliers.
            window_ns = tel.registry.window_ns
            groups: Dict[tuple, tuple] = {}
            for op, iface, dur, latency, size, t in chunk:
                key = (op, iface, t // window_ns)
                group = groups.get(key)
                if group is None:
                    group = groups[key] = (t, [], [], [])
                group[1].append(dur)
                if size >= 0:
                    group[2].append(size)
                    if latency >= 0:
                        group[3].append(latency)
            for (op, iface, _window), (t_ns, durations, sizes, latencies) in groups.items():
                if op == _SEND:
                    tel.fold_sends(iface, t_ns, durations, sizes)
                else:
                    tel.fold_receives(iface, t_ns, durations, sizes, latencies)

    # The timers stay part of the public surface; reading one folds the
    # pending records first, so deferral is invisible to consumers.

    @property
    def send_timer(self) -> Timer:
        self._fold()
        return self._send_timer

    @property
    def recv_timer(self) -> Timer:
        self._fold()
        return self._recv_timer

    @property
    def latency_timer(self) -> Timer:
        self._fold()
        return self._latency_timer

    @property
    def send_timers_by_iface(self) -> Dict[str, Timer]:
        self._fold()
        return self._send_timers_by_iface

    @property
    def recv_timers_by_iface(self) -> Dict[str, Timer]:
        self._fold()
        return self._recv_timers_by_iface

    # -- recording (called from ComponentContext) ----------------------------

    def record_send(self, iface: str, message: Message, duration_ns: int) -> None:
        """Account one send operation (kind-aware; see class doc).

        Hot path: counters, the telemetry clock nudge, one timestamped
        record append and the live contract check; timers and
        histograms are folded later by :meth:`_fold`.
        """
        kind = message.kind
        if kind == OBSERVATION:
            return  # observation traffic must not observe itself
        if kind == DATA:
            size = message.size_bytes
            self.data_sends.inc()
            self.bytes_sent += size
        else:
            size = -1
        tel = self.telemetry
        if tel is None:
            self._records.append((_SEND, iface, duration_ns, -1, size, 0))
            return
        # The record's time is the registry clock, moved to the message's
        # stamp first: a send stamped before another component moved the
        # clock lands in the current window.
        reg = tel.registry
        sent = message.sent_at_us
        ts = sent * 1_000 if sent is not None else 0
        if ts > reg.last_ns:
            reg.last_ns = ts
        else:
            ts = reg.last_ns
        self._records.append((_SEND, iface, duration_ns, -1, size, ts))
        if kind == DATA and tel.checker is not None:
            tel.checker.on_send(iface, message, ts)

    def record_deposit(self, iface: str, message: Message, duration_ns: int) -> None:
        """A deposit into the component's own provided interface: tracked,
        but deliberately outside the send counters (see Table 2)."""
        if message.kind == OBSERVATION:
            return
        if message.kind == DATA:
            self.deposits.inc()

    def record_receive(
        self, iface: str, message: Message, duration_ns: int, now_us: Optional[int] = None
    ) -> None:
        """Account one receive operation (kind-aware; see record_send)."""
        kind = message.kind
        if kind == OBSERVATION:
            return
        if kind == DATA:
            size = message.size_bytes
            self.data_receives.inc()
            self.bytes_received += size
        else:
            size = -1
        sent = message.sent_at_us
        if now_us is not None and sent is not None:
            # Clamp at zero: cross-CPU local clocks may run ahead.
            latency_ns = max(0, (now_us - sent)) * 1_000
        else:
            latency_ns = -1
        tel = self.telemetry
        if tel is None:
            self._records.append((_RECV, iface, duration_ns, latency_ns, size, 0))
            return
        reg = tel.registry
        ts = now_us * 1_000 if now_us is not None else 0
        if ts > reg.last_ns:
            reg.last_ns = ts
        else:
            ts = reg.last_ns
        self._records.append((_RECV, iface, duration_ns, latency_ns, size, ts))
        if kind == DATA and tel.checker is not None:
            tel.checker.on_receive(iface, message, latency_ns, ts)

    def record_alloc(self, nbytes: int, time_us: int) -> None:
        """Account a heap allocation (memory-evolution timeline)."""
        self.heap_bytes += nbytes
        self.heap_peak = max(self.heap_peak, self.heap_bytes)
        self.heap_timeline.append((time_us, self.heap_bytes))

    def record_free(self, nbytes: int, time_us: int) -> None:
        """Account a heap release."""
        self.heap_bytes -= nbytes
        self.heap_timeline.append((time_us, self.heap_bytes))

    def record_fault(self, kind: str) -> None:
        """Account one fault event (injected or organic) by kind."""
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if self.telemetry is not None:
            self.telemetry.on_fault(kind)

    def record_restart(self, downtime_ns: int, now_ns: Optional[int] = None) -> None:
        """Account a supervised restart and its failure-to-restart
        downtime -- the sample stream behind the MTTR report.  ``now_ns``
        (sim time of the restart) places the sample in the right
        telemetry window, making MTTR a live series."""
        self.restarts += 1
        self.recovery_ns.append(int(downtime_ns))
        if self.telemetry is not None:
            self.telemetry.on_restart(downtime_ns, now_ns)

    def record_checkpoint(self, nbytes: int, duration_ns: int) -> None:
        """Account one committed recovery checkpoint: snapshot size and
        capture cost (host time -- checkpointing is tooling, not workload)."""
        self.checkpoints += 1
        self.checkpoint_bytes += int(nbytes)
        self.checkpoint_ns.append(int(duration_ns))
        if self.telemetry is not None:
            self.telemetry.on_checkpoint(nbytes)

    def record_replay(self, now_ns: Optional[int] = None) -> None:
        """Account one message replayed to this component after a restart."""
        self.replays += 1
        if self.telemetry is not None:
            self.telemetry.on_replay(now_ns)

    def record_dedup(self, now_ns: Optional[int] = None) -> None:
        """Account one duplicate discarded by delivery-sequence dedup."""
        self.dedups += 1
        if self.telemetry is not None:
            self.telemetry.on_dedup(now_ns)

    # -- reports --------------------------------------------------------------

    def report(self, level: str) -> Dict[str, Any]:
        """Build the report dict for one observation level."""
        if level == OS_LEVEL:
            return self._os_report()
        if level == MIDDLEWARE_LEVEL:
            return self._middleware_report()
        if level == APPLICATION_LEVEL:
            return self._application_report()
        raise ObservationError(f"unknown observation level {level!r}")

    def _os_report(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.os_adapter is not None:
            data.update(self.os_adapter())
        if self.started_at_us is not None:
            end = self.ended_at_us
            data.setdefault("started_at_us", self.started_at_us)
            if end is not None:
                data.setdefault("exec_time_us", end - self.started_at_us)
        if self.heap_timeline:
            data.setdefault("heap_bytes", self.heap_bytes)
            data.setdefault("heap_peak_bytes", self.heap_peak)
            data.setdefault("heap_timeline", list(self.heap_timeline))
        return data

    def _middleware_report(self) -> Dict[str, Any]:
        self._fold()
        data = {
            "send": self._send_timer.snapshot(),
            "receive": self._recv_timer.snapshot(),
            "latency": self._latency_timer.snapshot(),
            "send_by_interface": {
                name: t.snapshot() for name, t in self._send_timers_by_iface.items()
            },
            "receive_by_interface": {
                name: t.snapshot() for name, t in self._recv_timers_by_iface.items()
            },
        }
        if self.middleware_adapter is not None:
            data.update(self.middleware_adapter())
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.interface_summary()
        return data

    def _application_report(self) -> Dict[str, Any]:
        recovery = self.recovery_ns
        report = {
            "structure": self.component.interfaces(),
            "sends": self.data_sends.snapshot(),
            "receives": self.data_receives.snapshot(),
            "deposits": self.deposits.snapshot(),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "faults": {
                "injected": dict(self.fault_counts),
                "restarts": self.restarts,
                "mttr_us": (sum(recovery) // len(recovery)) // 1_000 if recovery else 0,
            },
            "recovery": {
                "checkpoints": self.checkpoints,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_mean_ns": (
                    sum(self.checkpoint_ns) // len(self.checkpoint_ns)
                    if self.checkpoint_ns else 0
                ),
                "replayed": self.replays,
                "deduped": self.dedups,
            },
        }
        if self.telemetry is not None:
            summary = self.telemetry.contract_summary()
            if summary:
                report["contracts"] = summary
        return report


def observation_service_behavior(ctx, probe: ObservationProbe):
    """The per-component observation servicing flow.

    Spawned by the runtime next to each component (an interceptor, in
    CORBA terms): consumes :class:`ObservationRequest` messages arriving
    on the component's ``introspection`` provided interface and answers
    through its ``introspection`` required interface.  Terminates on a
    control message tagged ``"shutdown"``.
    """
    from repro.core.interfaces import OBSERVATION_INTERFACE

    while True:
        msg = yield from ctx.receive(OBSERVATION_INTERFACE)
        if msg.kind != OBSERVATION:
            if msg.tag == "shutdown":
                return
            continue  # ignore stray traffic on the control channel
        request = msg.payload
        if not isinstance(request, ObservationRequest):
            continue
        reply = ObservationReply(
            component=ctx.component.name,
            level=request.level,
            data=probe.report(request.level),
            reply_tag=request.reply_tag,
        )
        yield from ctx.send(OBSERVATION_INTERFACE, reply, kind=OBSERVATION)
