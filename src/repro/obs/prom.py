"""Prometheus text-format exposition of the serving metrics.

Renders a :class:`~repro.serving.metrics.MetricsRegistry` in the
`text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
counters as ``repro_<name>_total`` and latency histograms as the
standard cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
triple, so a stock Prometheus scrape of ``GET
/metrics?format=prometheus`` needs no adapter.  Metric names are
sanitised (dots become underscores: ``phase_seconds.ED`` →
``repro_phase_seconds_ED``); each histogram is read atomically so a
scrape never sees ``_count`` disagree with its ``+Inf`` bucket.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.serving.metrics import MetricsRegistry

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Fold a dotted registry name into a valid Prometheus metric name."""
    cleaned = _INVALID.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(
    metrics: MetricsRegistry,
    namespace: str = "repro",
    gauges: Optional[Mapping[str, float]] = None,
    labeled: Optional[Sequence[Mapping[str, Any]]] = None,
) -> str:
    """The registry's current state in Prometheus text format.

    ``gauges`` carries point-in-time values that are not registry
    counters (readiness, uptime, queue depths); they render with
    ``# TYPE ... gauge``.  ``labeled`` carries metric families with
    label sets (one ``{"name", "type", "samples": [(labels, value)]}``
    mapping per family) — the per-worker series use a ``worker`` label
    instead of minting one metric name per worker id.
    """
    counters, histograms = metrics.collect()
    lines: List[str] = []
    for name in sorted(counters):
        metric = f"{namespace}_{sanitize_metric_name(name)}"
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name].value}")
    for name, value in sorted((gauges or {}).items()):
        metric = f"{namespace}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(float(value))}")
    for family in labeled or ():
        kind = family.get("type", "gauge")
        metric = f"{namespace}_{sanitize_metric_name(family['name'])}"
        if kind == "counter" and not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# TYPE {metric} {kind}")
        for labels, value in family["samples"]:
            rendered = ",".join(
                f'{key}="{labels[key]}"' for key in sorted(labels)
            )
            lines.append(
                f"{metric}{{{rendered}}} {_format_value(float(value))}"
            )
    for name in sorted(histograms):
        histogram = histograms[name]
        metric = f"{namespace}_{sanitize_metric_name(name)}"
        buckets, total_sum, count = histogram.buckets()
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in buckets:
            le = "+Inf" if math.isinf(bound) else _format_value(bound)
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{metric}_sum {_format_value(total_sum)}")
        lines.append(f"{metric}_count {count}")
    return "\n".join(lines) + "\n"


def snapshot_gauges(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Extract gauge-worthy scalars from a service snapshot dict.

    Pulls readiness/uptime plus dispatcher and lifecycle numbers out of
    the JSON ``/metrics`` payload shape, so the Prometheus view covers
    the same surface without new bookkeeping.
    """
    gauges: Dict[str, float] = {}
    if "ready" in snapshot:
        gauges["ready"] = 1.0 if snapshot["ready"] else 0.0
    if "healthy" in snapshot:
        gauges["healthy"] = 1.0 if snapshot["healthy"] else 0.0
    if "uptime_seconds" in snapshot:
        gauges["uptime_seconds"] = float(snapshot["uptime_seconds"])
    for key, value in (snapshot.get("traces") or {}).items():
        if isinstance(value, (int, float)):
            gauges[f"traces.{key}"] = float(value)
    # Lifecycle status nests (pool stats, swap state, shadow report);
    # every numeric leaf becomes a dotted gauge.  Strings (state names,
    # fingerprints, reason codes) stay JSON-only — Prometheus gauges
    # are numbers, and encoding enums here would invent a contract.
    lifecycle = snapshot.get("lifecycle")
    if isinstance(lifecycle, Mapping):
        _flatten_numeric(lifecycle, "lifecycle", gauges)
    # Rolling SLO window: availability, burn rate, p99 vs deadline.
    # None leaves (p99_vs_deadline with no deadline) are non-numeric
    # and stay JSON-only.
    slo = snapshot.get("slo")
    if isinstance(slo, Mapping):
        _flatten_numeric(slo, "slo", gauges)
    # The dispatcher (both tiers): queue depth, shed/death/redispatch
    # counters, and sticky-readiness flags.  Per-worker numbers render
    # as labeled series instead (:func:`worker_series`).
    frontend = snapshot.get("frontend")
    if isinstance(frontend, Mapping):
        scalars = {
            key: value
            for key, value in frontend.items()
            if not isinstance(value, (list, tuple, Mapping, str))
        }
        _flatten_numeric(scalars, "frontend", gauges)
    return gauges


#: Cumulative per-worker counts → ``repro_worker_<name>_total{worker=}``.
_WORKER_COUNTERS = ("jobs", "queries", "errors", "respawns", "degraded")

#: Point-in-time per-worker state → ``repro_worker_<name>{worker=}``.
_WORKER_GAUGES = (("alive", "alive"), ("ready", "ready"),
                  ("busy_s", "busy_seconds"))


def worker_series(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-worker labeled metric families from a service snapshot.

    One family per exported field, each with a ``worker`` label per
    slot, so dashboards can aggregate or fan out (``sum by (worker)``)
    without name-mangled per-worker metric names.  Empty when the
    snapshot has no multi-process front-end.
    """
    frontend = snapshot.get("frontend")
    workers = (
        frontend.get("workers") if isinstance(frontend, Mapping) else None
    )
    if not isinstance(workers, (list, tuple)):
        return []
    entries = [
        entry
        for entry in workers
        if isinstance(entry, Mapping) and entry.get("worker_id") is not None
    ]
    if not entries:
        return []

    def samples(key):
        return [
            (
                {"worker": str(entry["worker_id"])},
                float(entry.get(key, 0) or 0),
            )
            for entry in entries
        ]

    families: List[Dict[str, Any]] = [
        {
            "name": f"worker_{key}",
            "type": "counter",
            "samples": samples(key),
        }
        for key in _WORKER_COUNTERS
    ]
    families.extend(
        {
            "name": f"worker_{rename}",
            "type": "gauge",
            "samples": samples(key),
        }
        for key, rename in _WORKER_GAUGES
    )
    return families


#: Cumulative per-tenant counts → ``repro_tenant_<name>_total{tenant=}``.
_TENANT_COUNTERS = ("loads", "evictions", "requests")


def tenant_series(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-tenant labeled metric families from a service snapshot.

    Mirrors :func:`worker_series` for the multi-tenant tier: one family
    per exported field with a ``tenant`` label, covering load/evict
    churn, request volume, quota pressure, accounted memory, and (for
    loaded tenants) the rolling SLO availability.  Empty when the
    snapshot carries no tenant registry.
    """
    registry = snapshot.get("tenants")
    tenants = (
        registry.get("tenants") if isinstance(registry, Mapping) else None
    )
    if not isinstance(tenants, Mapping) or not tenants:
        return []
    entries = sorted(
        (name, entry)
        for name, entry in tenants.items()
        if isinstance(entry, Mapping)
    )
    if not entries:
        return []

    def family(name, kind, value_of):
        samples = []
        for tenant, entry in entries:
            value = value_of(entry)
            if value is None:
                continue
            samples.append(({"tenant": tenant}, float(value)))
        return {"name": name, "type": kind, "samples": samples}

    families: List[Dict[str, Any]] = [
        family(f"tenant_{key}", "counter", lambda e, k=key: e.get(k, 0) or 0)
        for key in _TENANT_COUNTERS
    ]
    families.append(
        family("tenant_loaded", "gauge", lambda e: 1 if e.get("loaded") else 0)
    )
    families.append(
        family(
            "tenant_cost_bytes", "gauge", lambda e: e.get("cost_bytes", 0) or 0
        )
    )
    families.append(
        family(
            "tenant_quota_limit",
            "gauge",
            lambda e: (e.get("quota") or {}).get("limit", 0),
        )
    )
    families.append(
        family(
            "tenant_quota_used",
            "gauge",
            lambda e: (e.get("quota") or {}).get("used", 0),
        )
    )
    families.append(
        family(
            "tenant_availability",
            "gauge",
            lambda e: (e.get("slo") or {}).get("availability"),
        )
    )
    return [fam for fam in families if fam["samples"]]


def _flatten_numeric(
    tree: Mapping[str, Any], prefix: str, gauges: Dict[str, float]
) -> None:
    """Recursively hoist numeric (and bool) leaves into dotted gauges."""
    for key, value in tree.items():
        name = f"{prefix}.{key}"
        if isinstance(value, bool):
            gauges[name] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            gauges[name] = float(value)
        elif isinstance(value, Mapping):
            _flatten_numeric(value, name, gauges)
