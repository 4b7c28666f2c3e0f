"""End-to-end serving smoke test: the full ``generate → train → serve``
lifecycle over real HTTP, in a real subprocess.

Trains a tiny pipeline via the CLI, boots ``repro serve`` on an
ephemeral port, waits for readiness, links the dataset's own queries
over ``POST /v1/link``, scrapes ``GET /v1/metrics``, and writes a
``BENCH_serving.json`` summary (latency p50/p95, cache hit rate, batch
stats) into the test's workspace, so a test run never modifies the
checkout.  Marked slow, like the CLI lifecycle test it extends.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _post_link(base, queries, timeout=60.0):
    request = urllib.request.Request(
        base + "/v1/link",
        data=json.dumps({"queries": queries}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


@pytest.mark.slow
class TestServingSmoke:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve-smoke")
        data, model = root / "data", root / "model"
        assert main(
            ["generate", "--dataset", "hospital-x-like",
             "--out", str(data), "--seed", "11", "--queries", "40"]
        ) == 0
        assert main(
            ["train", "--data", str(data), "--out", str(model),
             "--dim", "10", "--epochs", "2", "--cbow-epochs", "3",
             "--seed", "4"]
        ) == 0
        return data, model

    @pytest.fixture(scope="class")
    def served(self, workspace):
        _, model = workspace
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model", str(model), "--port", "0",
             "--max-batch-size", "8", "--batch-wait-ms", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving on http://" in banner, (
                banner + (process.stderr.read() if process.poll() is not None else "")
            )
            base = banner.split()[2].rstrip("/")
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                assert process.poll() is None, process.stderr.read()
                try:
                    with urllib.request.urlopen(base + "/readyz", timeout=5.0) as r:
                        if r.status == 200:
                            break
                except urllib.error.HTTPError as error:
                    assert error.code == 503  # warming up
                except urllib.error.URLError:
                    pass
                time.sleep(0.1)
            else:
                pytest.fail("server never became ready")
            yield base, process
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(10.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(10.0)

    def test_lifecycle_and_bench_artifact(self, served, workspace):
        base, process = served
        data, _ = workspace
        queries = [
            json.loads(line)["text"]
            for line in (data / "queries.jsonl").read_text().splitlines()
        ][:20]

        linked = 0
        for start in range(0, len(queries), 4):
            payload = _post_link(base, queries[start : start + 4])
            results = payload["results"]
            assert len(results) == min(4, len(queries) - start)
            for result in results:
                assert set(result["timing"]) == {"OR", "CR", "ED", "RT"}
            linked += len(results)
        assert linked == len(queries)

        with urllib.request.urlopen(base + "/v1/metrics", timeout=30.0) as response:
            metrics = json.load(response)
        assert metrics["ready"] is True
        assert metrics["counters"]["requests_total"] >= linked
        request_histogram = metrics["histograms"]["request_seconds"]
        assert request_histogram["count"] >= 1
        encodings = metrics["caches"]["encodings"]
        assert encodings["hits"] + encodings["misses"] > 0

        summary = {
            "benchmark": "serving_smoke",
            "dataset": "hospital-x-like",
            "queries_linked": linked,
            "request_seconds": {
                "count": request_histogram["count"],
                "mean": request_histogram["mean"],
                "p50": request_histogram["p50"],
                "p95": request_histogram["p95"],
            },
            "phase_seconds_mean": {
                phase: metrics["histograms"][f"phase_seconds.{phase}"]["mean"]
                for phase in ("OR", "CR", "ED", "RT")
                if f"phase_seconds.{phase}" in metrics["histograms"]
            },
            "encoding_cache": {
                "hit_rate": encodings["hit_rate"],
                "size": encodings["size"],
                "evictions": encodings["evictions"],
            },
            "batcher": metrics["batcher"],
        }
        bench_path = data.parent / "BENCH_serving.json"
        bench_path.write_text(json.dumps(summary, indent=2) + "\n")
        assert json.loads(bench_path.read_text())["queries_linked"] == linked

    def test_graceful_shutdown_on_sigterm(self, served):
        base, process = served
        # Ordering within the class is fixture-scoped: this runs after
        # the lifecycle test, so killing the server here is safe.
        process.send_signal(signal.SIGTERM)
        assert process.wait(15.0) == 0
