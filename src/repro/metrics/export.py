"""Telemetry exporters: JSON, Prometheus text, and the invariance digest.

The JSON schema (``repro.metrics/v1``) round-trips: ``payload ->``
:func:`registry_from_payload` ``-> payload`` is the identity on
instruments and windows, which the metrics-smoke CI job checks.

The digest (:func:`metrics_digest`) covers the *deterministic* subset
of a registry -- counters, histograms and the windowed delta series,
all pure functions of virtual time -- and excludes gauges (busy time on
the native runtime is host time).  A run has one registry at any shard
count, and under pinned placement its digest -- and its whole document
but the ``shard_cut_messages`` gauges -- is identical for every shard
count; ``repro run --metrics`` prints it as ``metrics sha256:`` and CI
compares 1/2/4-shard runs, exactly like the ``frames sha256:`` oracle.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.metrics.telemetry import (
    MetricsRegistry,
    N_BUCKETS,
    Window,
    bucket_bounds,
    instrument_id,
)

SCHEMA = "repro.metrics/v1"


def registry_payload(registry: MetricsRegistry, meta: Dict[str, Any] = None) -> Dict[str, Any]:
    """The JSON document for one registry."""
    payload = {"schema": SCHEMA, **registry.snapshot()}
    if meta:
        payload["meta"] = dict(meta)
    return payload


def registry_from_payload(payload: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from its JSON document (exporter round-trip)."""
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"unknown metrics schema {schema!r}; expected {SCHEMA!r}")
    # Older v1 documents carry an always-0 "shard" key, at the top and
    # in every window; loading ignores it.
    registry = MetricsRegistry(window_ns=payload["window_ns"])
    for snap in payload["instruments"].values():
        kind, name, labels = snap["kind"], snap["name"], snap["labels"]
        if kind == "counter":
            registry.counter(name, **labels).inc(snap["value"])
        elif kind == "gauge":
            registry.gauge(name, **labels).set(snap["value"], snap["ts_ns"])
        else:
            hist = registry.histogram(name, **labels)
            for b, c in snap["buckets"].items():
                hist.counts[int(b)] = c
            hist.count = snap["count"]
            hist.total = snap["total_ns"]
            if hist.count:
                hist.min_value = snap["min_ns"]
                hist.max_value = snap["max_ns"]
    for w in payload.get("windows", []):
        registry.windows.append(
            Window(w["id"], w["index"], registry.window_ns, w["data"])
        )
    return registry


def _digest_state(registry: MetricsRegistry) -> Dict[str, Any]:
    instruments = {}
    for kind, name, labels, inst in registry.instruments():
        if kind == "gauge":
            continue  # host-time (busy) and point-in-time values: not invariant
        iid = instrument_id(name, labels)
        if kind == "counter":
            instruments[iid] = inst.value
        else:
            cnt, total, counts = inst.state()
            instruments[iid] = {
                "count": cnt,
                "total": total,
                "buckets": {str(b): c for b, c in enumerate(counts) if c},
                "min": inst.min_value,
                "max": inst.max_value,
            }
    windows = [
        {"index": w.index, "data": w.data} for w in registry.windows
    ]
    return {"window_ns": registry.window_ns, "instruments": instruments, "windows": windows}


def metrics_digest(registry: MetricsRegistry) -> str:
    """sha256 over the deterministic subset (see module doc)."""
    blob = json.dumps(_digest_state(registry), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _prom_name(name: str) -> str:
    return "repro_" + name


def _prom_labels(labels: Dict[str, Any], extra: Dict[str, Any] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{merged[k]}"' for k in sorted(merged))
    return "{" + inner + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of the cumulative instruments.

    Histograms render in the standard cumulative-``le`` form with the
    log2 bucket upper bounds, plus ``_sum`` and ``_count``.
    """
    lines = []
    seen_types = set()
    for kind, name, labels, inst in registry.instruments():
        pname = _prom_name(name)
        if kind == "counter":
            if pname not in seen_types:
                seen_types.add(pname)
                lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname}{_prom_labels(labels)} {inst.value}")
        elif kind == "gauge":
            if pname not in seen_types:
                seen_types.add(pname)
                lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname}{_prom_labels(labels)} {inst.value}")
        else:
            if pname not in seen_types:
                seen_types.add(pname)
                lines.append(f"# TYPE {pname} histogram")
            cum = 0
            for b in range(N_BUCKETS):
                c = inst.counts[b]
                if not c:
                    continue
                cum += c
                le = bucket_bounds(b)[1]
                lines.append(
                    f"{pname}_bucket{_prom_labels(labels, {'le': le})} {cum}"
                )
            lines.append(
                f"{pname}_bucket{_prom_labels(labels, {'le': '+Inf'})} {inst.count}"
            )
            lines.append(f"{pname}_sum{_prom_labels(labels)} {inst.total}")
            lines.append(f"{pname}_count{_prom_labels(labels)} {inst.count}")
    return "\n".join(lines) + "\n"


def write_metrics(
    path: Union[str, Path],
    registry: MetricsRegistry,
    meta: Dict[str, Any] = None,
) -> Dict[str, Any]:
    """Write a registry to ``path`` -- Prometheus text for ``.prom`` /
    ``.txt``, JSON otherwise.  Returns the JSON payload either way."""
    path = Path(path)
    payload = registry_payload(registry, meta=meta)
    if path.suffix in (".prom", ".txt"):
        path.write_text(to_prometheus(registry))
    else:
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return payload


def read_metrics(path: Union[str, Path]) -> MetricsRegistry:
    """Load a JSON metrics document back into a registry."""
    return registry_from_payload(json.loads(Path(path).read_text()))
