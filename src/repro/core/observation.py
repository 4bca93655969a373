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
from typing import Any, Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.errors import ObservationError
from repro.core.messages import DATA, OBSERVATION, Message
from repro.metrics import Counter, Timer
from repro.metrics.telemetry import _fold_data, _window_runs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.component import Component

OS_LEVEL = "os"
MIDDLEWARE_LEVEL = "middleware"
APPLICATION_LEVEL = "application"

LEVELS = (OS_LEVEL, MIDDLEWARE_LEVEL, APPLICATION_LEVEL)

#: Operation codes (first element of a column key).
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
    """The one observer of a component, fed by context interposition.

    Every component is observed at all three levels, and every
    middleware operation is timed.  The probe keeps one record per
    operation and derives every number it reports from it: the Table 2
    counts, the timers and, once :func:`~repro.metrics.telemetry.enable_telemetry`
    attaches a registry, the registry's per-interface histograms and
    windowed counters.  Deposits, outside the records, keep their own
    counter.

    The hot path appends the record to the columns of its (operation,
    interface) -- its size (-1 for a control message), for a receive
    its delivery latency (-1 when unknown), and its duration -- and,
    with a registry, first its time on the registry clock, which it
    moves, then runs the component's live contract checks.
    :meth:`_fold` turns the columns into every number above, one batch
    per column and, for the registry, one batch per window run.  The
    probe also writes the robustness instruments (faults, restarts,
    checkpoints, replays, dedups) as they happen.

    Native-runtime threads append without a lock: only the component's
    own thread records into its probe (observation traffic is not
    recorded), while a fold may run on any thread.  An operation appends
    its duration last, so the length of a duration column counts the
    records complete in every column of its key; a fold takes that many
    from each and deletes them, under a lock only folds take.
    """

    def __init__(self, component: "Component") -> None:
        self.component = component
        #: The records not yet folded, as columns: one ``(t_ns,
        #: size_bytes, latency_ns, duration_ns)`` tuple of lists per
        #: (operation, interface), in the order each key first recorded.
        #: See the class doc for what each operation appends.
        self._columns: Dict[Tuple[int, str], tuple] = {}
        #: The same columns by interface, one dict per operation, for
        #: the hot path.
        self._send_columns: Dict[str, tuple] = {}
        self._recv_columns: Dict[str, tuple] = {}
        self._fold_lock = threading.Lock()
        #: End-to-end message latency (sender timestamp -> delivery).
        #: On OS21 the sender/receiver clocks are *local* per CPU, so this
        #: inherits their skew -- faithfully to the platform (sec. 5.2).
        self._latency_timer = Timer(f"{component.name}.latency")
        self._send_timers_by_iface: Dict[str, Timer] = {}
        self._recv_timers_by_iface: Dict[str, Timer] = {}
        self._data_sends = Counter(f"{component.name}.sends")
        self._data_receives = Counter(f"{component.name}.receives")
        self._bytes_sent = 0
        self._bytes_received = 0
        self.deposits = Counter(f"{component.name}.deposits")
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
        #: The live metrics plane (see :meth:`attach`): the shared
        #: registry, the component's contract checker when it declares a
        #: contract, and the registry instruments this probe writes --
        #: per interface, ``[duration histogram, message counter, byte
        #: counter]``, and a receive's delivery-latency histogram.
        self.registry = None
        self.checker = None
        self._send_instruments: Dict[str, list] = {}
        self._recv_instruments: Dict[str, list] = {}
        self._robustness: Dict[str, Any] = {}

    def attach(self, registry, checker) -> None:
        """Feed ``registry`` from now on, and run ``checker`` (or none)
        on the live stream.  Records made before carry no registry time:
        they are folded first, into the probe's own numbers only."""
        self._fold()
        name = self.component.name
        self.registry = registry
        self.checker = checker
        self._robustness = {
            "restarts": registry.counter("restarts_total", component=name),
            "downtime": registry.histogram("restart_downtime_ns", component=name),
            "replays": registry.counter("replays_total", component=name),
            "dedups": registry.counter("dedups_total", component=name),
            "checkpoints": registry.counter("checkpoints_total", component=name),
            "checkpoint_bytes": registry.counter("checkpoint_bytes_total", component=name),
        }

    # -- folding ------------------------------------------------------------

    def _fold(self) -> None:
        """Fold the appended records into every number derived from them.

        Runs before every read, and from the registry's window cut
        (:meth:`~repro.metrics.telemetry.MetricsRegistry.finish`); each
        record lands in the window of its own ``t_ns``.  Keys are walked
        in first-record order, so timers and registry instruments are
        created in the order of the operations that first used them.  A
        record a concurrent native-runtime thread appends mid-fold stays
        for the next fold, and two folds never take the same record.
        """
        with self._fold_lock:
            registry = self.registry
            for (op, iface), columns in list(self._columns.items()):
                n = len(columns[3])
                if not n:
                    continue
                ts, sizes, latencies, durations = [column[:n] for column in columns]
                for column in columns:
                    del column[:n]
                data = [size for size in sizes if size >= 0] if -1 in sizes else sizes
                if op == _SEND:
                    self._data_sends.inc(len(data))
                    self._bytes_sent += sum(data)
                    by_iface = self._send_timers_by_iface
                else:
                    self._data_receives.inc(len(data))
                    self._bytes_received += sum(data)
                    if min(latencies) < 0:
                        self._latency_timer.record_many([x for x in latencies if x >= 0])
                    else:
                        self._latency_timer.record_many(latencies)
                    by_iface = self._recv_timers_by_iface
                timer = by_iface.get(iface)
                if timer is None:
                    timer = by_iface[iface] = Timer(iface)
                timer.record_many(durations)
                if registry is None:
                    continue
                entry = self._instruments(op, iface)
                runs = _window_runs(ts, registry.window_ns)
                entry[0].observe_windows(
                    [(window, durations[start:end]) for start, end, window in runs]
                )
                _fold_data(entry, runs, sizes)
                if op == _RECV:
                    # Latency is a *data* metric: control messages (e.g.
                    # end-of-stream markers) queue behind the whole
                    # stream and would dominate the tail.
                    batches = []
                    for start, end, window in runs:
                        run_sizes = sizes[start:end]
                        run_latencies = latencies[start:end]
                        if -1 in run_sizes or -1 in run_latencies:
                            run_latencies = [
                                latency for size, latency in zip(run_sizes, run_latencies)
                                if size >= 0 and latency >= 0
                            ]
                        batches.append((window, run_latencies))
                    entry[3].observe_windows(batches)

    def _instruments(self, op: int, iface: str) -> list:
        """The registry instruments of one (operation, interface),
        created on its first fold."""
        cache = self._send_instruments if op == _SEND else self._recv_instruments
        entry = cache.get(iface)
        if entry is None:
            reg, c = self.registry, self.component.name
            if op == _SEND:
                entry = [
                    reg.histogram("send_duration_ns", component=c, iface=iface),
                    reg.counter("messages_sent_total", component=c, iface=iface),
                    reg.counter("bytes_sent_total", component=c, iface=iface),
                ]
            else:
                entry = [
                    reg.histogram("receive_duration_ns", component=c, iface=iface),
                    reg.counter("messages_received_total", component=c, iface=iface),
                    reg.counter("bytes_received_total", component=c, iface=iface),
                    reg.histogram("delivery_latency_ns", component=c, iface=iface),
                ]
            cache[iface] = entry
        return entry

    # Every number below is a fold of the records: reading one folds the
    # pending records first, so deferral is invisible to consumers.

    @property
    def data_sends(self) -> Counter:
        """Data messages sent (Table 2)."""
        self._fold()
        return self._data_sends

    @property
    def data_receives(self) -> Counter:
        """Data messages received (Table 2)."""
        self._fold()
        return self._data_receives

    @property
    def bytes_sent(self) -> int:
        self._fold()
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        self._fold()
        return self._bytes_received

    @property
    def send_timer(self) -> Timer:
        """Every send's duration: the per-interface timers, merged."""
        return _merged(f"{self.component.name}.send", self.send_timers_by_iface)

    @property
    def recv_timer(self) -> Timer:
        """Every receive's duration: the per-interface timers, merged."""
        return _merged(f"{self.component.name}.receive", self.recv_timers_by_iface)

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
        """Append one send's record (see the class doc); everything but
        the registry clock and the contract checks waits for
        :meth:`_fold`."""
        kind = message.kind
        if kind == OBSERVATION:
            return  # observation traffic must not observe itself
        size = message.size_bytes if kind == DATA else -1
        columns = self._send_columns.get(iface)
        if columns is None:
            columns = self._new_columns(_SEND, iface)
        registry = self.registry
        if registry is None:
            columns[1].append(size)
            columns[3].append(duration_ns)
            return
        # The record's time is the registry clock, moved to the message's
        # stamp first: a send stamped before another component moved the
        # clock lands in the current window.
        sent = message.sent_at_us
        ts = sent * 1_000 if sent is not None else 0
        if ts > registry.last_ns:
            registry.last_ns = ts
        else:
            ts = registry.last_ns
        columns[0].append(ts)
        columns[1].append(size)
        columns[3].append(duration_ns)
        if kind == DATA and self.checker is not None:
            self.checker.on_send(iface, message, ts)

    def _new_columns(self, op: int, iface: str) -> tuple:
        """The empty columns of a key's first record."""
        columns = self._columns.setdefault((op, iface), ([], [], [], []))
        (self._send_columns if op == _SEND else self._recv_columns)[iface] = columns
        return columns

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
        """Append one receive's record (see :meth:`record_send`)."""
        kind = message.kind
        if kind == OBSERVATION:
            return
        size = message.size_bytes if kind == DATA else -1
        sent = message.sent_at_us
        if now_us is not None and sent is not None:
            # Clamp at zero: cross-CPU local clocks may run ahead.
            latency_ns = max(0, (now_us - sent)) * 1_000
        else:
            latency_ns = -1
        columns = self._recv_columns.get(iface)
        if columns is None:
            columns = self._new_columns(_RECV, iface)
        registry = self.registry
        if registry is None:
            columns[1].append(size)
            columns[2].append(latency_ns)
            columns[3].append(duration_ns)
            return
        ts = now_us * 1_000 if now_us is not None else 0
        if ts > registry.last_ns:
            registry.last_ns = ts
        else:
            ts = registry.last_ns
        columns[0].append(ts)
        columns[1].append(size)
        columns[2].append(latency_ns)
        columns[3].append(duration_ns)
        if kind == DATA and self.checker is not None:
            self.checker.on_receive(iface, message, latency_ns, ts)

    def record_alloc(self, nbytes: int, time_us: int) -> None:
        """Account a heap allocation (memory-evolution timeline)."""
        self.heap_bytes += nbytes
        self.heap_peak = max(self.heap_peak, self.heap_bytes)
        self.heap_timeline.append((time_us, self.heap_bytes))

    def record_free(self, nbytes: int, time_us: int) -> None:
        """Account a heap release."""
        self.heap_bytes -= nbytes
        self.heap_timeline.append((time_us, self.heap_bytes))

    # The robustness stream (injector, supervisor, recovery manager).
    # A registry write without a ``now_ns`` lands in the window of the
    # registry clock.

    def record_fault(self, kind: str) -> None:
        """Account one fault event (injected or organic) by kind."""
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if self.registry is not None:
            self.registry.counter("faults_total", component=self.component.name, kind=kind).inc()

    def record_restart(self, downtime_ns: int, now_ns: Optional[int] = None) -> None:
        """Account a supervised restart and its failure-to-restart
        downtime -- the sample stream behind the MTTR report.  ``now_ns``
        (sim time of the restart) places the sample in the right
        telemetry window, making MTTR a live series."""
        self.restarts += 1
        self.recovery_ns.append(int(downtime_ns))
        if self.registry is not None:
            self._advance(now_ns)
            self._robustness["restarts"].inc(1, now_ns)
            self._robustness["downtime"].observe(int(downtime_ns), now_ns)

    def record_checkpoint(self, nbytes: int, duration_ns: int) -> None:
        """Account one committed recovery checkpoint: snapshot size and
        capture cost (host time -- checkpointing is tooling, not workload)."""
        self.checkpoints += 1
        self.checkpoint_bytes += int(nbytes)
        self.checkpoint_ns.append(int(duration_ns))
        if self.registry is not None:
            self._robustness["checkpoints"].inc()
            self._robustness["checkpoint_bytes"].inc(int(nbytes))

    def record_replay(self, now_ns: Optional[int] = None) -> None:
        """Account one message replayed to this component after a restart."""
        self.replays += 1
        if self.registry is not None:
            self._advance(now_ns)
            self._robustness["replays"].inc(1, now_ns)

    def record_dedup(self, now_ns: Optional[int] = None) -> None:
        """Account one duplicate discarded by delivery-sequence dedup."""
        self.dedups += 1
        if self.registry is not None:
            self._advance(now_ns)
            self._robustness["dedups"].inc(1, now_ns)

    def _advance(self, now_ns: Optional[int]) -> None:
        if now_ns is not None:
            self.registry.advance(now_ns)

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
        data = {
            "send": self.send_timer.snapshot(),
            "receive": self.recv_timer.snapshot(),
            "latency": self.latency_timer.snapshot(),
            "send_by_interface": {
                name: t.snapshot() for name, t in self._send_timers_by_iface.items()
            },
            "receive_by_interface": {
                name: t.snapshot() for name, t in self._recv_timers_by_iface.items()
            },
        }
        if self.middleware_adapter is not None:
            data.update(self.middleware_adapter())
        if self.registry is not None:
            data["telemetry"] = {
                "send_duration_ns": _quantile_view(self._send_instruments, 0),
                "receive_duration_ns": _quantile_view(self._recv_instruments, 0),
                "delivery_latency_ns": _quantile_view(self._recv_instruments, 3),
            }
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
        if self.checker is not None:
            summary = self.checker.summary()
            if summary:
                report["contracts"] = summary
        return report


def _merged(name: str, timers: Dict[str, Timer]) -> Timer:
    """One timer over the samples of ``timers``."""
    merged = Timer(name)
    for timer in timers.values():
        merged.merge(timer)
    return merged


def _quantile_view(instruments: Dict[str, list], index: int) -> Dict[str, Any]:
    """Per-interface percentile summary of one histogram of each entry."""
    out = {}
    for iface, entry in sorted(instruments.items()):
        hist = entry[index]
        if hist.count:
            out[iface] = {"count": hist.count, **hist.quantiles()}
    return out


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
