"""The live telemetry plane: streaming instruments on the sim clock.

The paper's observer is post-mortem: probes accumulate, the observer
collects at the end.  This module makes observation *live* without
giving up the "no per-sample storage" constraint of an embedded target:

- :class:`Log2Histogram` -- fixed 64-bucket log2 streaming histogram
  (p50/p90/p99/p999 by bucket interpolation, clamped to the tracked
  min/max so single-sample and constant streams report exactly).
  Merging is bucketwise addition, so merged histograms are
  **bucket-exact**.
- :class:`Gauge` -- last-write-wins point-in-time value.
- :class:`MetricsRegistry` -- instruments keyed by ``name{labels}``,
  plus a windowed time series on the sim clock.  Every windowed write
  carries the sim time it happened at, and the instrument keeps its
  deltas by window index (``index = t_ns // window_ns``); the registry
  cuts them into the series once, at read time (:meth:`finish`), and
  numbers the windows from 1.
- :func:`enable_telemetry` / :func:`collect_telemetry` -- the runtime
  wiring, shaped exactly like ``enable_tracing`` / ``collect_trace``:
  one registry per runtime at any shard count, fed by every component
  including those added mid-run; enable before ``start()``, collect
  after ``wait()``.

No second object stands between a component and the registry: each
:class:`~repro.core.observation.ObservationProbe` is its component's one
observer.  It holds the registry, the component's contract checker
(:mod:`repro.core.contracts`) and its instruments, and its fold feeds
the per-interface histograms and windowed counters from the same
columns as its timers and Table 2 counts, one batch per window run
(:func:`_window_runs`, :func:`_fold_data`).  The runtimes stamp their
gauges into the registry themselves.

Determinism contract: on the simulated runtimes every instrument fed
from middleware hooks is a pure function of virtual time, so a pinned
placement produces the same registry for every shard count, apart
from the ``shard_cut_messages`` gauges that describe the layout --
the ``metrics sha256`` CI gate (see :mod:`repro.metrics.export`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.stats import Counter

#: Fixed bucket count: bucket 0 holds zeros, bucket b >= 1 holds values
#: in [2^(b-1), 2^b - 1].  63 value buckets cover every int64 duration.
N_BUCKETS = 64

#: Default window width on the sim clock (5 ms of virtual time).
DEFAULT_WINDOW_NS = 5_000_000

#: Reported quantiles (fraction, snapshot key).
QUANTILES = ((0.50, "p50_ns"), (0.90, "p90_ns"), (0.99, "p99_ns"), (0.999, "p999_ns"))
_QUANTILE_FRACTIONS = tuple(q for q, _key in QUANTILES)
_QUANTILE_KEYS = tuple(key for _q, key in QUANTILES)


def bucket_of(value: int) -> int:
    """Bucket index of a non-negative integer sample."""
    if value <= 0:
        return 0
    b = value.bit_length()
    return b if b < N_BUCKETS else N_BUCKETS - 1


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive ``(lo, hi)`` value range of one bucket."""
    if index <= 0:
        return (0, 0)
    return (1 << (index - 1), (1 << index) - 1)


#: Window key of untimed writes made before the registry clock first
#: moves (e.g. initial recovery checkpoints); the cut folds them into
#: the first window of the series.
_BEFORE_CLOCK = -1


def window_of(registry: Optional["MetricsRegistry"], t_ns: Optional[int]) -> int:
    """Window index of a write at sim time ``t_ns``; an untimed write
    (``None``) lands in the window of the registry clock."""
    if registry is None:
        return 0
    if t_ns is None:
        t_ns = registry.last_ns
        if not t_ns:
            return _BEFORE_CLOCK
    return t_ns // registry.window_ns


#: Bucket-index keys of window deltas, precomputed for the sample path.
_BUCKET_KEYS = tuple(str(b) for b in range(N_BUCKETS))


class Log2Histogram:
    """Streaming log2-bucket histogram: no per-sample storage, exact
    bucketwise merge."""

    kind = "histogram"

    __slots__ = (
        "name", "counts", "count", "total", "min_value", "max_value",
        "registry", "deltas",
    )

    def __init__(self, name: str = "", registry: Optional["MetricsRegistry"] = None) -> None:
        self.name = name
        self.counts: List[int] = [0] * N_BUCKETS
        self.count = 0
        self.total = 0
        self.min_value: Optional[int] = None
        self.max_value: Optional[int] = None
        self.registry = registry
        #: Window index -> that window's export-ready delta, until the
        #: registry cuts its window series.
        self.deltas: Dict[int, Dict[str, Any]] = {}

    def observe(self, value: int, t_ns: Optional[int] = None) -> None:
        """Record one sample taken at sim time ``t_ns`` (negative samples
        clamp to 0)."""
        self.observe_many((value,), t_ns)

    def observe_many(self, values: Sequence[int], t_ns: Optional[int] = None) -> None:
        """Record a batch of samples, all taken in the window of sim time
        ``t_ns`` (default: the registry clock)."""
        self.observe_windows(((window_of(self.registry, t_ns), values),))

    def observe_windows(self, batches: Iterable[Tuple[int, Sequence[int]]]) -> None:
        """Record batches of samples, each ``(window, values)`` taken in
        the window of that index (see :func:`window_of`).  State is bound
        to locals once per call: the probe's fold hands over an
        interface's column in one call, one batch per window run."""
        counts = self.counts
        deltas = self.deltas
        keys = _BUCKET_KEYS
        top = N_BUCKETS - 1
        count, grand, mn, mx = self.count, self.total, self.min_value, self.max_value
        for window, values in batches:
            if not values:
                continue
            delta = deltas.get(window)
            if delta is None:
                delta = deltas[window] = {
                    "kind": "histogram", "count": 0, "total_ns": 0, "buckets": {},
                }
            buckets = delta["buckets"]
            total = 0
            for v in values:
                if v < 0:
                    v = 0
                b = v.bit_length()
                if b > top:
                    b = top
                counts[b] += 1
                key = keys[b]
                buckets[key] = buckets.get(key, 0) + 1
                total += v
                if mn is None or v < mn:
                    mn = v
                if mx is None or v > mx:
                    mx = v
            n = len(values)
            count += n
            grand += total
            delta["count"] += n
            delta["total_ns"] += total
        self.count, self.total, self.min_value, self.max_value = count, grand, mn, mx

    def merge(self, other: "Log2Histogram") -> None:
        """Bucketwise addition (the dashboard folds interfaces with it)."""
        if other.count == 0:
            return
        counts = self.counts
        for b, c in enumerate(other.counts):
            if c:
                counts[b] += c
        self.count += other.count
        self.total += other.total
        if self.min_value is None or (other.min_value is not None and other.min_value < self.min_value):
            self.min_value = other.min_value
        if self.max_value is None or (other.max_value is not None and other.max_value > self.max_value):
            self.max_value = other.max_value

    def percentile(self, q: float) -> float:
        """Quantile by cumulative bucket walk with linear interpolation
        inside the bucket, clamped to the tracked min/max (so an empty
        histogram reports 0 and a single sample reports itself exactly)."""
        return self._walk((q,))[0]

    def quantiles(self) -> Dict[str, float]:
        """The reported quantile set (see :data:`QUANTILES`)."""
        return dict(zip(_QUANTILE_KEYS, self._walk(_QUANTILE_FRACTIONS)))

    def _walk(self, fractions: Sequence[float]) -> List[float]:
        """:meth:`percentile` of each of the ascending ``fractions``, all
        in one bucket walk."""
        n = self.count
        if n == 0:
            return [0.0] * len(fractions)
        targets = [q * n if q * n >= 1.0 else 1.0 for q in fractions]
        values: List[float] = []
        cum = 0
        for b, c in enumerate(self.counts):
            if not c:
                continue
            prev = cum
            cum += c
            while cum >= targets[len(values)]:
                lo, hi = bucket_bounds(b)
                value = lo + (targets[len(values)] - prev) / c * (hi - lo)
                if self.min_value is not None and value < self.min_value:
                    value = float(self.min_value)
                if self.max_value is not None and value > self.max_value:
                    value = float(self.max_value)
                values.append(value)
                if len(values) == len(targets):
                    return values
        return values + [float(self.max_value or 0)] * (len(targets) - len(values))  # pragma: no cover

    def state(self) -> Tuple[int, int, Tuple[int, ...]]:
        """Cumulative integer state (for window deltas and digests)."""
        return (self.count, self.total, tuple(self.counts))

    def reset(self) -> None:
        """Zero the histogram in place (registry ``clear()``)."""
        self.counts = [0] * N_BUCKETS
        self.count = 0
        self.total = 0
        self.min_value = None
        self.max_value = None
        self.deltas = {}

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready cumulative snapshot, sparse buckets."""
        snap: Dict[str, Any] = {
            "count": self.count,
            "total_ns": self.total,
            "min_ns": self.min_value if self.min_value is not None else 0,
            "max_ns": self.max_value if self.max_value is not None else 0,
            "buckets": {str(b): c for b, c in enumerate(self.counts) if c},
        }
        snap.update(self.quantiles())
        return snap

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Log2Histogram {self.name} n={self.count}>"


class Gauge:
    """A point-in-time value (queue depth, busy time): last write wins."""

    kind = "gauge"

    __slots__ = ("name", "value", "ts_ns")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value: float = 0
        self.ts_ns = 0

    def set(self, value: float, ts_ns: int = 0) -> None:
        """Stamp the current value at sim time ``ts_ns``."""
        self.value = value
        self.ts_ns = ts_ns

    def reset(self) -> None:
        """Zero the gauge in place (registry ``clear()``)."""
        self.value = 0
        self.ts_ns = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready snapshot."""
        return {"value": self.value, "ts_ns": self.ts_ns}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gauge {self.name}={self.value}>"


class WindowedCounter(Counter):
    """A registry counter: every increment is also kept by the window
    it happened in (see :func:`window_of`)."""

    __slots__ = ("registry", "deltas")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name)
        self.registry = registry
        #: Window index -> that window's export-ready delta, until the
        #: registry cuts its window series.
        self.deltas: Dict[int, Dict[str, Any]] = {}

    def inc(self, n: int = 1, t_ns: Optional[int] = None) -> None:
        """Increment by ``n`` at sim time ``t_ns`` (default: the
        registry clock)."""
        self.inc_windows(((window_of(self.registry, t_ns), n),))

    def inc_windows(self, amounts: Iterable[Tuple[int, int]]) -> None:
        """Increment by each ``(window, n)``: ``n`` in the window of that
        index (see :func:`window_of`)."""
        deltas = self.deltas
        for window, n in amounts:
            if n < 0:
                raise ValueError(f"counter increment must be >= 0, got {n}")
            if n:
                self.value += n
                delta = deltas.get(window)
                if delta is None:
                    delta = deltas[window] = {"kind": "counter", "inc": 0}
                delta["inc"] += n

    def reset(self) -> None:
        """Zero the counter and drop its window deltas."""
        self.value = 0
        self.deltas = {}


def instrument_id(name: str, labels: Dict[str, Any]) -> str:
    """Canonical ``name{k=v,...}`` id (labels sorted; stable across runs)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Window:
    """One closed window of the series: instrument *deltas* over
    ``[index * window_ns, (index + 1) * window_ns)`` of the sim clock."""

    __slots__ = ("id", "index", "start_ns", "end_ns", "data")

    def __init__(self, wid: int, index: int, window_ns: int,
                 data: Dict[str, Dict[str, Any]]) -> None:
        self.id = wid
        self.index = index
        self.start_ns = index * window_ns
        self.end_ns = (index + 1) * window_ns
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "id": self.id,
            "index": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "data": self.data,
        }


class MetricsRegistry:
    """Instruments plus their windowed delta series on the sim clock.

    Window ids count from 1; :meth:`clear` restarts them exactly like a
    fresh registry -- the ``TraceBuffer.clear()`` parity contract
    (repeated campaigns in one process must produce identical series).
    """

    def __init__(self, window_ns: int = DEFAULT_WINDOW_NS) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = window_ns
        self._window_ids = count(1)
        #: key -> (kind, name, labels, instrument)
        self._entries: Dict[tuple, Tuple[str, str, Dict[str, Any], Any]] = {}
        #: key -> canonical instrument id (built once at registration;
        #: the window cut must not re-join label strings per instrument).
        self._iids: Dict[tuple, str] = {}
        self.windows: List[Window] = []
        #: Observation probes feeding this registry (registered by
        #: :meth:`attach`): :meth:`finish` folds their pending
        #: records and judges their contract checkers before the cut.
        self._probes: list = []
        #: The registry clock: the latest sim time written or advanced
        #: to.  Gauges and untimed writes read it.
        self.last_ns = 0

    # -- instruments ---------------------------------------------------------

    def _get(self, kind: str, name: str, labels: Dict[str, Any], factory):
        key = (name, tuple(sorted(labels.items())))
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = (kind, name, dict(labels), factory())
            self._iids[key] = instrument_id(name, labels)
        return entry[3]

    def counter(self, name: str, **labels: Any) -> WindowedCounter:
        """Get-or-create a labeled counter."""
        return self._get("counter", name, labels, lambda: WindowedCounter(name, self))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get-or-create a labeled gauge."""
        return self._get("gauge", name, labels, lambda: Gauge(name))

    def histogram(self, name: str, **labels: Any) -> Log2Histogram:
        """Get-or-create a labeled log2 histogram."""
        return self._get("histogram", name, labels, lambda: Log2Histogram(name, self))

    def instruments(self) -> List[Tuple[str, str, Dict[str, Any], Any]]:
        """All ``(kind, name, labels, instrument)`` entries, id-sorted."""
        return sorted(
            self._entries.values(), key=lambda e: instrument_id(e[1], e[2])
        )

    def attach(self, cont) -> None:
        """Feed this registry from a deployed container's probe, which
        also runs the contract checker its interfaces declare."""
        probe = cont.probe
        probe.attach(self, _attach_checker(cont, self))
        self._probes.append(probe)

    # -- windows --------------------------------------------------------------

    def advance(self, now_ns: int) -> None:
        """Move the registry clock forward to ``now_ns``."""
        if now_ns > self.last_ns:
            self.last_ns = now_ns

    def finish(self, now_ns: Optional[int] = None) -> None:
        """Cut the window series at end of run (``now_ns``, default the
        registry clock).

        Folds every probe's pending records, runs each contract
        checker's :meth:`~repro.core.contracts.ContractChecker.on_window`
        on every window from its interfaces' first window to the final
        one -- so rate violations land in the window they judge -- then
        appends one :class:`Window` per index with deltas, in index
        order.  Writes made before the clock first moved join the first
        window.  Gauges are point-in-time: read live, never windowed.
        """
        if now_ns is not None:
            self.advance(now_ns)
        window_ns = self.window_ns
        final = self.last_ns // window_ns
        for probe in self._probes:
            probe._fold()
            checker = probe.checker
            if checker is None or not checker.first_window:
                continue
            for index in range(min(checker.first_window.values()), final + 1):
                start = index * window_ns
                checker.on_window(index, start, start + window_ns, index == final)
        by_index: Dict[int, Dict[str, Dict[str, Any]]] = {}
        for key, (kind, _name, _labels, inst) in self._entries.items():
            if kind == "gauge":
                continue
            iid = self._iids[key]
            for index, delta in inst.deltas.items():
                by_index.setdefault(index, {})[iid] = delta
            inst.deltas = {}
        early = by_index.pop(_BEFORE_CLOCK, None)
        if early is not None:
            first = min(by_index, default=final)
            _merge_window_data(by_index.setdefault(first, {}), early)
        for index in sorted(by_index):
            self.windows.append(
                Window(next(self._window_ids), index, window_ns, by_index[index])
            )

    # -- lifecycle -------------------------------------------------------------

    def clear(self) -> None:
        """Reset to the state of a *fresh* registry: instruments zeroed
        in place (cached references stay valid), windows dropped, window
        numbering restarted -- the :meth:`TraceBuffer.clear` twin, so
        repeated campaigns in one process produce identical series."""
        for _kind, _name, _labels, inst in self._entries.values():
            inst.reset()
        self.windows.clear()
        self._window_ids = count(1)
        self.last_ns = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready cumulative view: instruments plus the window series."""
        instruments = {}
        for kind, name, labels, inst in self.instruments():
            snap = {"kind": kind, "name": name, "labels": labels}
            value = inst.snapshot()
            if isinstance(value, dict):
                snap.update(value)
            else:  # plain Counter snapshot
                snap["value"] = value
            instruments[instrument_id(name, labels)] = snap
        return {
            "window_ns": self.window_ns,
            "instruments": instruments,
            "windows": [w.to_dict() for w in self.windows],
        }


def _merge_window_data(into: Dict[str, Dict[str, Any]], data: Dict[str, Dict[str, Any]]) -> None:
    for iid, delta in data.items():
        cur = into.get(iid)
        if cur is None:
            cur = dict(delta)
            if delta["kind"] == "histogram":
                cur["buckets"] = dict(delta["buckets"])
            into[iid] = cur
            continue
        if delta["kind"] == "counter":
            cur["inc"] += delta["inc"]
        else:
            cur["count"] += delta["count"]
            cur["total_ns"] += delta["total_ns"]
            buckets = cur["buckets"]
            for b, c in delta["buckets"].items():
                buckets[b] = buckets.get(b, 0) + c


def _window_runs(ts: List[int], window_ns: int) -> List[Tuple[int, int, int]]:
    """``(start, end, window)`` of each run of consecutive records of a
    column in one window.  The registry clock only moves forward, so a
    probe's times are sorted and a bisect finds each run's end.  After
    the registry's ``clear()``, or when native-runtime threads race on
    its clock, they may not be, and then the records are walked one by
    one."""
    n = len(ts)
    ordered = ts == sorted(ts)
    runs = []
    start = 0
    while start < n:
        window = ts[start] // window_ns
        if ordered:
            end = bisect_left(ts, (window + 1) * window_ns, start, n)
        else:
            end = start + 1
            while end < n and ts[end] // window_ns == window:
                end += 1
        runs.append((start, end, window))
        start = end
    return runs


def _fold_data(entry: list, runs: List[Tuple[int, int, int]], sizes: List[int]) -> None:
    """The message and byte counters of an interface column's data
    messages, one increment per window run."""
    messages = []
    nbytes = []
    for start, end, window in runs:
        data = sizes[start:end]
        if -1 in data:
            data = [size for size in data if size >= 0]
        if data:
            messages.append((window, len(data)))
            nbytes.append((window, sum(data)))
    entry[1].inc_windows(messages)
    entry[2].inc_windows(nbytes)


def _attach_checker(cont, registry: MetricsRegistry):
    """Build a contract checker for a container when any of its
    functional interfaces declares a contract."""
    from repro.core.contracts import ContractChecker

    comp = cont.component
    receive_contracts = {
        p.name: p.contract
        for p in comp.provided.values()
        if p.contract is not None and not p.is_observation
    }
    send_contracts = {
        r.name: r.contract
        for r in comp.required.values()
        if r.contract is not None and not r.is_observation
    }
    if not receive_contracts and not send_contracts:
        return None
    return ContractChecker(
        comp.name, receive_contracts, send_contracts, registry, extra=cont.extra
    )


def enable_telemetry(runtime) -> MetricsRegistry:
    """Feed one registry of :data:`DEFAULT_WINDOW_NS` windows from every
    component of ``runtime``, at any shard count: the deployed ones now,
    and each one ``runtime.add_component`` creates later.

    Call before ``runtime.start()``.  Returns the registry.
    """
    # Read at call time, so a test can narrow the windows by patching it.
    registry = MetricsRegistry(window_ns=DEFAULT_WINDOW_NS)
    for cont in runtime.containers.values():
        registry.attach(cont)
    runtime.metrics = registry
    return registry


def collect_telemetry(runtime) -> MetricsRegistry:
    """Finalize a runtime's telemetry after ``wait()``.

    Stamps the runtime-owned gauges (busy time, queue depths, EMBX
    object traffic, shard cut traffic), cuts the window series at the
    run's makespan (identical across shard counts under pinned
    placement) and returns the registry.
    """
    registry = getattr(runtime, "metrics", None)
    if registry is None:
        raise ValueError("enable_telemetry() was not called on this runtime")
    stamp = getattr(runtime, "stamp_telemetry", None)
    if stamp is not None:
        stamp()
    registry.finish(getattr(runtime, "makespan_ns", None))
    return registry
