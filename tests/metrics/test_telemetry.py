"""The live telemetry plane: histograms, windows, shard-exact merge.

Three families of guarantees pinned here:

- percentile math on the log2 streaming histogram (bucket boundaries,
  empty / single-sample / constant streams, interpolation clamped to
  the tracked min/max);
- the windowed delta series on the sim clock (deltas land in the
  window they were observed in, gauges stay out of windows) and the
  ``clear()`` / fresh-registry parity contract (repeated campaigns in
  one process must number and fill windows identically);
- the shard-merge property: per-shard histograms merged bucketwise are
  *bucket-exact* equal to the single-kernel run under pinned placement
  (seeds 1 / 7 / 42), the ``metrics sha256`` CI oracle in test form.
"""

from types import SimpleNamespace

import pytest

from repro.core import Component, Message, ObservationProbe
from repro.metrics import telemetry
from repro.metrics.export import metrics_digest
from repro.metrics.telemetry import (
    DEFAULT_WINDOW_NS,
    Log2Histogram,
    MetricsRegistry,
    N_BUCKETS,
    bucket_bounds,
    bucket_of,
    enable_telemetry,
    instrument_id,
)
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly
from repro.runtime import ShardedSmpSimRuntime


# -- buckets -----------------------------------------------------------------


def test_bucket_of_boundaries():
    assert bucket_of(0) == 0
    assert bucket_of(-5) == 0  # negatives clamp into the zero bucket
    assert bucket_of(1) == 1
    assert bucket_of(2) == 2
    assert bucket_of(3) == 2
    assert bucket_of(4) == 3
    for k in range(1, 62):
        assert bucket_of(1 << k) == k + 1
        assert bucket_of((1 << k) - 1) == k
    assert bucket_of(1 << 200) == N_BUCKETS - 1  # huge samples saturate


def test_bucket_bounds_tile_the_integers():
    assert bucket_bounds(0) == (0, 0)
    prev_hi = 0
    for b in range(1, 20):
        lo, hi = bucket_bounds(b)
        assert lo == prev_hi + 1, f"gap before bucket {b}"
        assert lo <= hi
        assert bucket_of(lo) == b and bucket_of(hi) == b
        prev_hi = hi


# -- percentile math ---------------------------------------------------------


def test_empty_histogram_reports_zero():
    h = Log2Histogram("empty")
    assert h.percentile(0.5) == 0.0
    assert h.quantiles() == {"p50_ns": 0.0, "p90_ns": 0.0, "p99_ns": 0.0, "p999_ns": 0.0}


def test_single_sample_is_exact_at_every_quantile():
    h = Log2Histogram()
    h.observe(700)  # interior of bucket [512, 1023]
    for q in (0.5, 0.9, 0.99, 0.999):
        assert h.percentile(q) == 700.0  # clamped to min == max == sample


def test_constant_stream_is_exact():
    h = Log2Histogram()
    for _ in range(1000):
        h.observe(12_345)
    assert h.percentile(0.5) == 12_345.0
    assert h.percentile(0.999) == 12_345.0


def test_interpolation_clamps_to_min_and_max():
    h = Log2Histogram()
    h.observe(512)   # both land in bucket [512, 1023]
    h.observe(1000)
    # raw interpolation would leave the [512, 1000] hull at the edges
    assert h.percentile(0.001) >= 512.0
    assert h.percentile(0.999) <= 1000.0
    assert h.min_value == 512 and h.max_value == 1000


def test_quantile_keys_match_snapshot():
    h = Log2Histogram()
    h.observe(8)
    snap = h.snapshot()
    for key in ("p50_ns", "p90_ns", "p99_ns", "p999_ns"):
        assert key in snap
    assert snap["count"] == 1 and snap["total_ns"] == 8
    assert snap["min_ns"] == 8 and snap["max_ns"] == 8


def test_percentile_is_monotone_in_q():
    h = Log2Histogram()
    for v in (1, 3, 9, 80, 700, 6_000, 50_000):
        h.observe(v)
    qs = [h.percentile(q) for q in (0.1, 0.5, 0.9, 0.99, 0.999)]
    assert qs == sorted(qs)


# -- merge -------------------------------------------------------------------


def test_histogram_merge_is_bucketwise_exact():
    a, b, whole = Log2Histogram(), Log2Histogram(), Log2Histogram()
    for i, v in enumerate((0, 1, 5, 900, 3, 70_000, 2, 2)):
        (a if i % 2 else b).observe(v)
        whole.observe(v)
    a.merge(b)
    assert a.state() == whole.state()
    assert a.min_value == whole.min_value
    assert a.max_value == whole.max_value
    assert a.quantiles() == whole.quantiles()


def test_merge_empty_histogram_is_identity():
    a = Log2Histogram()
    a.observe(42)
    before = a.state()
    a.merge(Log2Histogram())
    assert a.state() == before


# -- the windowed series -----------------------------------------------------


def test_window_deltas_land_where_observed():
    reg = MetricsRegistry(window_ns=1_000)
    h = reg.histogram("lat_ns", component="c")
    n = reg.counter("msgs_total", component="c")
    h.observe(5, t_ns=100)
    n.inc(t_ns=100)
    h.observe(9, t_ns=1_500)
    reg.finish(1_600)   # cuts window 0 and window 1 (final, partial)

    assert [w.index for w in reg.windows] == [0, 1]
    w0, w1 = reg.windows
    hid = instrument_id("lat_ns", {"component": "c"})
    cid = instrument_id("msgs_total", {"component": "c"})
    assert w0.data[hid] == {
        "kind": "histogram", "count": 1, "total_ns": 5, "buckets": {"3": 1},
    }
    assert w0.data[cid] == {"kind": "counter", "inc": 1}
    assert w1.data[hid]["count"] == 1 and w1.data[hid]["total_ns"] == 9
    assert cid not in w1.data  # no counter traffic in window 1


def test_empty_windows_are_skipped():
    reg = MetricsRegistry(window_ns=1_000)
    h = reg.histogram("lat_ns")
    h.observe(1, t_ns=100)
    h.observe(2, t_ns=10_500)  # 10 windows on; gap windows carry nothing
    reg.finish(10_600)
    assert [w.index for w in reg.windows] == [0, 10]


def test_untimed_writes_land_in_the_window_of_the_clock():
    reg = MetricsRegistry(window_ns=1_000)
    n = reg.counter("msgs_total")
    n.inc()  # before the clock moves: joins the first window
    reg.advance(2_100)
    n.inc(2)
    reg.advance(3_900)
    n.inc(4)
    reg.finish()
    assert [(w.index, w.data["msgs_total"]["inc"]) for w in reg.windows] == [(2, 3), (3, 4)]


def test_a_record_stamped_behind_the_registry_clock_lands_in_its_window(monkeypatch):
    """A send is stamped when it starts; if another component moved the
    shared clock past a window boundary meanwhile, the record lands in
    the window the clock is in."""
    probes = {}
    for name in ("a", "b"):
        comp = Component(name)
        comp.add_provided("in")
        comp.add_required("out")
        probes[name] = SimpleNamespace(component=comp, probe=ObservationProbe(comp), extra={})
    monkeypatch.setattr(telemetry, "DEFAULT_WINDOW_NS", 1_000)
    reg = enable_telemetry(SimpleNamespace(containers=probes))
    probes["b"].probe.record_receive("in", Message(payload=b"x", sent_at_us=1), 10, now_us=5)
    probes["a"].probe.record_send("out", Message(payload=b"x", sent_at_us=3), 10)
    reg.finish()
    sends = "send_duration_ns{component=a,iface=out}"
    assert [w.index for w in reg.windows if sends in w.data] == [5]


def test_gauges_never_appear_in_windows():
    reg = MetricsRegistry(window_ns=1_000)
    g = reg.gauge("queue_depth", component="c")
    h = reg.histogram("lat_ns")
    g.set(7, 100)
    h.observe(3, t_ns=100)
    reg.finish(1_500)
    for w in reg.windows:
        assert all("queue_depth" not in iid for iid in w.data)


def test_window_ids_count_from_one():
    reg = MetricsRegistry(window_ns=1_000)
    h = reg.histogram("x")
    for ts in (100, 1_100, 2_100):
        h.observe(1, t_ns=ts)
    reg.finish(2_200)
    assert [w.id for w in reg.windows] == [1, 2, 3]


# -- clear() / fresh-registry parity (the TraceBuffer.clear() twin) ----------


def _drive(reg: MetricsRegistry) -> None:
    """One deterministic mini-campaign against the registry surface."""
    h = reg.histogram("lat_ns", component="c", iface="in")
    n = reg.counter("msgs_total", component="c")
    g = reg.gauge("busy_ns", component="c")
    for i, (ts, v) in enumerate(
        ((100, 5), (900, 80), (1_200, 7), (4_400, 9), (9_001, 6_000))
    ):
        h.observe(v, t_ns=ts)
        n.inc(t_ns=ts)
        g.set(i, ts)
    reg.finish(9_100)


def _series(reg: MetricsRegistry):
    return [(w.id, w.index, w.start_ns, w.end_ns, w.data) for w in reg.windows]


def test_cleared_registry_matches_fresh_registry():
    reg = MetricsRegistry(window_ns=1_000)
    _drive(reg)
    first = _series(reg)
    first_digest = metrics_digest(reg)
    assert first, "the mini-campaign must produce windows"

    reg.clear()
    assert reg.windows == [] and reg.last_ns == 0
    _drive(reg)  # same campaign, same process, after clear()
    assert _series(reg) == first
    assert metrics_digest(reg) == first_digest

    fresh = MetricsRegistry(window_ns=1_000)
    _drive(fresh)
    assert _series(fresh) == first
    assert metrics_digest(fresh) == first_digest


def test_clear_keeps_cached_instrument_references_valid():
    reg = MetricsRegistry(window_ns=1_000)
    h = reg.histogram("lat_ns")
    n = reg.counter("msgs_total")
    h.observe(9)
    n.inc(3)
    reg.clear()
    assert h.count == 0 and h.state() == (0, 0, tuple([0] * N_BUCKETS))
    assert n.value == 0
    h.observe(9)  # the same object keeps feeding the same registry
    assert reg.histogram("lat_ns") is h
    assert h.count == 1


# -- the shard-count property (seeds 1 / 7 / 42) -----------------------------


def _decode_registry(seed: int, n_shards: int):
    """MJPEG decode with telemetry on N shards, pinned as ``repro run
    --metrics`` pins it: component i on core ``i * 16 // n``.  Returns
    the registry and each component's shard."""
    from repro.metrics.telemetry import collect_telemetry, enable_telemetry

    stream = generate_stream(3, 96, 96, quality=75, seed=seed)
    app = build_smp_assembly(stream, use_stored_coefficients=True, keep_frames=True)
    n_components = len(app.components)
    for i, comp in enumerate(app.components.values()):
        comp.placement.setdefault("core", i * 16 // n_components)
    rt = ShardedSmpSimRuntime(n_shards)
    rt.deploy(app)
    enable_telemetry(rt)
    rt.start()
    rt.wait()
    registry = collect_telemetry(rt)
    shards = {name: cont.extra["shard"] for name, cont in rt.containers.items()}
    rt.collect()
    rt.stop()
    return registry, shards


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_histograms_are_bucket_exact_at_two_shards(seed):
    single, _ = _decode_registry(seed, 1)
    sharded, shards = _decode_registry(seed, 2)
    assert set(shards.values()) == {0, 1}, "both shards must host a component"
    assert single.windows, "the decode must produce a window series"
    assert metrics_digest(sharded) == metrics_digest(single)


def test_default_window_is_five_virtual_milliseconds():
    assert DEFAULT_WINDOW_NS == 5_000_000
    with pytest.raises(ValueError):
        MetricsRegistry(window_ns=0)
