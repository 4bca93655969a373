"""The per-record probe fold, kept verbatim as the exactness reference.

``repro.core.observation.ObservationProbe`` keeps its unfolded records
as columns, one set per (operation, interface), and folds each column
in batches.  Before that every operation appended one 6-tuple ``(op,
iface, duration_ns, latency_ns, size_bytes, t_ns)`` to one list, and
the fold below walked it record by record.  The hot paths and the fold
are unchanged.  Only what they call and ``src/`` no longer has is
defined here: the per-sample ``Timer.record``, on a subclass of the same
name, and the per-window ``ComponentTelemetry.fold_sends`` and
``fold_receives`` (which now take a whole column), as functions of the
same names.

``tests/metrics/test_probe_fold_differential.py`` holds the columnar
fold to this one on timer snapshots, the registry's window series and
``metrics_digest``.
"""

from typing import Dict, Optional

from repro.core.messages import DATA, OBSERVATION, Message
from repro.core.observation import ObservationProbe
from repro.metrics import stats

_SEND = 0
_RECV = 1


class Timer(stats.Timer):
    """:class:`repro.metrics.stats.Timer` with its per-sample update."""

    __slots__ = ()

    def record(self, duration_ns: int) -> None:
        """Record one duration sample (nanoseconds)."""
        if duration_ns < 0:
            raise ValueError(f"negative duration: {duration_ns}")
        self.count += 1
        self.total_ns += duration_ns
        self.min_ns = duration_ns if self.min_ns is None else min(self.min_ns, duration_ns)
        self.max_ns = duration_ns if self.max_ns is None else max(self.max_ns, duration_ns)


def fold_sends(tel, iface, t_ns, durations, sizes) -> None:
    """``ComponentTelemetry.fold_sends`` as it was: one interface's sends
    in the window of ``t_ns``."""
    entry = tel._send_cache.get(iface)
    if entry is None:
        entry = tel._make_send(iface)
    entry[0].observe_many(durations, t_ns)
    if sizes:
        entry[1].inc(len(sizes), t_ns)
        entry[2].inc(sum(sizes), t_ns)


def fold_receives(tel, iface, t_ns, durations, sizes, latencies) -> None:
    """``ComponentTelemetry.fold_receives`` as it was."""
    entry = tel._recv_cache.get(iface)
    if entry is None:
        entry = tel._make_recv(iface)
    entry[0].observe_many(durations, t_ns)
    if sizes:
        entry[1].inc(len(sizes), t_ns)
        entry[2].inc(sum(sizes), t_ns)
    entry[3].observe_many(latencies, t_ns)


class RecordListProbe(ObservationProbe):
    """An :class:`ObservationProbe` that records one tuple per operation."""

    def __init__(self, component) -> None:
        super().__init__(component)
        self._records: list = []
        self._send_timer = Timer(f"{component.name}.send")
        self._recv_timer = Timer(f"{component.name}.receive")
        self._latency_timer = Timer(f"{component.name}.latency")

    def _fold(self) -> None:
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
                    fold_sends(tel, iface, t_ns, durations, sizes)
                else:
                    fold_receives(tel, iface, t_ns, durations, sizes, latencies)

    def record_send(self, iface: str, message: Message, duration_ns: int) -> None:
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

    def record_receive(
        self, iface: str, message: Message, duration_ns: int, now_us: Optional[int] = None
    ) -> None:
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
