"""Exporter contracts: JSON round-trip, digest invariance, Prometheus.

The ``repro.metrics/v1`` JSON document must round-trip through
:func:`registry_from_payload` without moving the digest (the CI
metrics-smoke job checks the same property on real run artifacts), the
digest must ignore gauges (host-time busy values are not
shard-invariant), and the Prometheus text form must use the standard
cumulative-``le`` histogram encoding.
"""

import json

import pytest

from repro.metrics.export import (
    SCHEMA,
    metrics_digest,
    read_metrics,
    registry_from_payload,
    registry_payload,
    to_prometheus,
    write_metrics,
)
from repro.metrics.telemetry import MetricsRegistry, bucket_bounds, bucket_of


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry(window_ns=1_000)
    h = reg.histogram("delivery_latency_ns", component="IDCT_1", iface="in")
    n = reg.counter("messages_sent_total", component="Fetch", iface="out")
    g = reg.gauge("busy_ns", component="Fetch")
    for v in (0, 3, 900, 70_000):
        h.observe(v, t_ns=100)
    n.inc(4, t_ns=100)
    g.set(123_456, 100)
    h.observe(12, t_ns=2_500)
    reg.finish(2_600)
    return reg


# -- JSON round-trip ---------------------------------------------------------


def test_payload_round_trip_is_identity_on_instruments_and_windows():
    reg = _populated_registry()
    payload = registry_payload(reg, meta={"run": "unit"})
    assert payload["schema"] == SCHEMA
    assert payload["meta"] == {"run": "unit"}

    rebuilt = registry_from_payload(json.loads(json.dumps(payload)))
    assert metrics_digest(rebuilt) == metrics_digest(reg)
    # the round-tripped payload is byte-identical minus meta
    again = registry_payload(rebuilt)
    original = dict(payload)
    original.pop("meta")
    assert json.dumps(again, sort_keys=True) == json.dumps(original, sort_keys=True)


def test_a_document_with_the_old_shard_keys_still_loads():
    # Older v1 documents carry an always-0 "shard" key at the top level
    # and in every window; loading drops it without moving anything else.
    payload = registry_payload(_populated_registry())
    assert "shard" not in payload
    old = json.loads(json.dumps(payload))
    old["shard"] = 0
    for window in old["windows"]:
        window["shard"] = 0
    rebuilt = registry_from_payload(old)
    assert json.dumps(registry_payload(rebuilt), sort_keys=True) == json.dumps(
        payload, sort_keys=True
    )


def test_unknown_schema_is_rejected():
    payload = registry_payload(_populated_registry())
    payload["schema"] = "repro.metrics/v999"
    with pytest.raises(ValueError, match="repro.metrics/v999"):
        registry_from_payload(payload)
    with pytest.raises(ValueError, match="expected"):
        registry_from_payload({"instruments": {}})


def test_round_trip_restores_histogram_extremes():
    reg = _populated_registry()
    rebuilt = registry_from_payload(registry_payload(reg))
    h = rebuilt.histogram("delivery_latency_ns", component="IDCT_1", iface="in")
    assert h.count == 5
    assert h.min_value == 0 and h.max_value == 70_000
    assert h.quantiles() == reg.histogram(
        "delivery_latency_ns", component="IDCT_1", iface="in"
    ).quantiles()


# -- the invariance digest ---------------------------------------------------


def test_digest_ignores_gauges():
    a = _populated_registry()
    b = _populated_registry()
    b.gauge("busy_ns", component="Fetch").set(999_999_999, 9_999)
    b.gauge("queue_depth", component="Fetch", iface="in").set(42, 1)
    assert metrics_digest(a) == metrics_digest(b)


def test_digest_is_sensitive_to_counters_histograms_and_windows():
    base = metrics_digest(_populated_registry())

    bumped = _populated_registry()
    bumped.counter("messages_sent_total", component="Fetch", iface="out").inc()
    assert metrics_digest(bumped) != base

    observed = _populated_registry()
    observed.histogram("delivery_latency_ns", component="IDCT_1", iface="in").observe(1)
    assert metrics_digest(observed) != base

    rewindowed = _populated_registry()
    rewindowed.windows.pop()
    assert metrics_digest(rewindowed) != base


# -- Prometheus text ---------------------------------------------------------


def test_prometheus_counters_and_gauges():
    prom = to_prometheus(_populated_registry())
    assert "# TYPE repro_messages_sent_total counter" in prom
    assert 'repro_messages_sent_total{component="Fetch",iface="out"} 4' in prom
    assert "# TYPE repro_busy_ns gauge" in prom
    assert 'repro_busy_ns{component="Fetch"} 123456' in prom
    assert prom.endswith("\n")


def test_prometheus_histogram_is_cumulative_le_form():
    prom = to_prometheus(_populated_registry())
    labels = 'component="IDCT_1",iface="in"'
    assert "# TYPE repro_delivery_latency_ns histogram" in prom
    # samples 0, 3, 12, 900, 70000 -> buckets 0, 2, 4, 10, 17
    for value, cum in ((0, 1), (3, 2), (12, 3), (900, 4), (70_000, 5)):
        le = bucket_bounds(bucket_of(value))[1]
        assert f'repro_delivery_latency_ns_bucket{{{labels},le="{le}"}} {cum}' in prom
    assert f'repro_delivery_latency_ns_bucket{{{labels},le="+Inf"}} 5' in prom
    assert f"repro_delivery_latency_ns_sum{{{labels}}} {0 + 3 + 12 + 900 + 70_000}" in prom
    assert f"repro_delivery_latency_ns_count{{{labels}}} 5" in prom


def test_prometheus_type_line_emitted_once_per_metric_name():
    reg = _populated_registry()
    reg.counter("messages_sent_total", component="IDCT_1", iface="out").inc()
    prom = to_prometheus(reg)
    assert prom.count("# TYPE repro_messages_sent_total counter") == 1


# -- write / read ------------------------------------------------------------


def test_write_metrics_picks_format_by_suffix(tmp_path):
    reg = _populated_registry()

    json_path = tmp_path / "out.json"
    payload = write_metrics(json_path, reg, meta={"images": 3})
    assert payload["meta"] == {"images": 3}
    loaded = read_metrics(json_path)
    assert metrics_digest(loaded) == metrics_digest(reg)

    prom_path = tmp_path / "out.prom"
    write_metrics(prom_path, reg)
    assert prom_path.read_text() == to_prometheus(reg)

    txt_path = tmp_path / "out.txt"
    write_metrics(txt_path, reg)
    assert txt_path.read_text() == to_prometheus(reg)
