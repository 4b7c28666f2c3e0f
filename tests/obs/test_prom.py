"""Prometheus text exposition: names, counters, histograms, gauges,
labeled per-worker series, and SLO gauge flattening."""

import math

from repro.obs.prom import (
    render_prometheus,
    sanitize_metric_name,
    snapshot_gauges,
    worker_series,
)
from repro.serving.metrics import MetricsRegistry


class TestSanitize:
    def test_dots_and_dashes_fold_to_underscores(self):
        assert sanitize_metric_name("phase_seconds.ED") == "phase_seconds_ED"
        assert sanitize_metric_name("a-b c") == "a_b_c"

    def test_digit_prefix_guard(self):
        assert sanitize_metric_name("5xx") == "_5xx"
        assert sanitize_metric_name("") == "_"

    def test_colons_allowed(self):
        assert sanitize_metric_name("ns:metric") == "ns:metric"


class TestRender:
    def test_counters_get_total_suffix_and_type_line(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.counter("hits_total").inc(1)
        text = render_prometheus(registry)
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        # An existing _total suffix is not doubled.
        assert "repro_hits_total 1" in text
        assert "repro_hits_total_total" not in text

    def test_histogram_is_cumulative_with_inf_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=[0.01, 0.1])
        for value in (0.005, 0.05, 5.0):
            histogram.observe(value)
        lines = render_prometheus(registry).splitlines()
        bucket_lines = [l for l in lines if l.startswith("repro_lat_bucket")]
        assert bucket_lines == [
            'repro_lat_bucket{le="0.01"} 1',
            'repro_lat_bucket{le="0.1"} 2',
            'repro_lat_bucket{le="+Inf"} 3',
        ]
        assert "repro_lat_count 3" in lines
        sum_line = [l for l in lines if l.startswith("repro_lat_sum")][0]
        assert math.isclose(float(sum_line.split()[1]), 5.055)

    def test_gauges_render_with_gauge_type(self):
        registry = MetricsRegistry()
        text = render_prometheus(
            registry, gauges={"ready": 1.0, "cache.concepts.size": 42}
        )
        assert "# TYPE repro_ready gauge" in text
        assert "repro_ready 1.0" in text
        assert "repro_cache_concepts_size 42.0" in text

    def test_ends_with_newline(self):
        assert render_prometheus(MetricsRegistry()).endswith("\n")

    def test_labeled_families_render_sorted_labels(self):
        text = render_prometheus(
            MetricsRegistry(),
            labeled=[
                {
                    "name": "worker_jobs",
                    "type": "counter",
                    "samples": [({"worker": "0"}, 3.0), ({"worker": "1"}, 1.0)],
                },
                {
                    "name": "worker_busy_seconds",
                    "type": "gauge",
                    "samples": [({"worker": "0"}, 0.25)],
                },
            ],
        )
        assert "# TYPE repro_worker_jobs_total counter" in text
        assert 'repro_worker_jobs_total{worker="0"} 3.0' in text
        assert 'repro_worker_jobs_total{worker="1"} 1.0' in text
        assert "# TYPE repro_worker_busy_seconds gauge" in text
        assert 'repro_worker_busy_seconds{worker="0"} 0.25' in text
        # Gauge families never grow a _total suffix.
        assert "repro_worker_busy_seconds_total" not in text


class TestSnapshotGauges:
    def test_extracts_lifecycle_cache_batcher_traces(self):
        snapshot = {
            "ready": True,
            "healthy": False,
            "uptime_seconds": 12.5,
            "frontend": {"jobs_ok": 3, "shed_policy": "reject_new"},
            "traces": {"retained": 2, "sample_rate": 1.0},
        }
        gauges = snapshot_gauges(snapshot)
        assert gauges["ready"] == 1.0
        assert gauges["healthy"] == 0.0
        assert gauges["uptime_seconds"] == 12.5
        assert gauges["frontend.jobs_ok"] == 3.0
        assert gauges["traces.retained"] == 2.0
        assert "frontend.shed_policy" not in gauges

    def test_empty_snapshot(self):
        assert snapshot_gauges({}) == {}

    def test_slo_window_flattens_to_gauges_skipping_none(self):
        snapshot = {
            "slo": {
                "availability": 0.995,
                "error_budget_burn_rate": 5.0,
                "p99_s": 0.012,
                "requests": 200,
                "p99_vs_deadline": None,
            }
        }
        gauges = snapshot_gauges(snapshot)
        assert gauges["slo.availability"] == 0.995
        assert gauges["slo.error_budget_burn_rate"] == 5.0
        assert gauges["slo.p99_s"] == 0.012
        assert gauges["slo.requests"] == 200.0
        # None (deadline disabled) is not a number; it stays JSON-only.
        assert "slo.p99_vs_deadline" not in gauges

    def test_frontend_scalars_become_gauges_but_not_workers(self):
        snapshot = {
            "frontend": {
                "queue_depth": 2,
                "ready": True,
                "shed_policy": "reject_new",
                "workers": [{"worker_id": 0, "jobs": 5}],
            }
        }
        gauges = snapshot_gauges(snapshot)
        assert gauges["frontend.queue_depth"] == 2.0
        assert gauges["frontend.ready"] == 1.0
        # Strings and the per-worker table stay out of the dotted
        # gauges; workers render as labeled series instead.
        assert "frontend.shed_policy" not in gauges
        assert not any(key.startswith("frontend.workers") for key in gauges)


class TestWorkerSeries:
    SNAPSHOT = {
        "frontend": {
            "workers": [
                {"worker_id": 0, "pid": 101, "alive": True, "ready": True,
                 "jobs": 4, "queries": 9, "errors": 0, "respawns": 0,
                 "degraded": 1, "busy_s": 0.5},
                {"worker_id": 1, "pid": 102, "alive": True, "ready": False,
                 "jobs": 2, "queries": 3, "errors": 1, "respawns": 2,
                 "degraded": 0, "busy_s": 0.25},
            ]
        }
    }

    def test_one_family_per_field_with_worker_labels(self):
        families = {f["name"]: f for f in worker_series(self.SNAPSHOT)}
        assert set(families) == {
            "worker_jobs", "worker_queries", "worker_errors",
            "worker_respawns", "worker_degraded", "worker_alive",
            "worker_ready", "worker_busy_seconds",
        }
        jobs = families["worker_jobs"]
        assert jobs["type"] == "counter"
        assert jobs["samples"] == [
            ({"worker": "0"}, 4.0), ({"worker": "1"}, 2.0),
        ]
        ready = families["worker_ready"]
        assert ready["type"] == "gauge"
        assert ready["samples"] == [
            ({"worker": "0"}, 1.0), ({"worker": "1"}, 0.0),
        ]
        busy = families["worker_busy_seconds"]
        assert busy["samples"][0] == ({"worker": "0"}, 0.5)

    def test_no_frontend_or_no_workers_yields_nothing(self):
        assert worker_series({}) == []
        assert worker_series({"frontend": {}}) == []
        assert worker_series({"frontend": {"workers": []}}) == []
