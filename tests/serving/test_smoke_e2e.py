"""End-to-end serving smoke test: the full ``generate → train → serve``
lifecycle over real HTTP, in a real subprocess.

Trains a tiny pipeline via the CLI, boots ``repro serve`` on an
ephemeral port, waits for readiness, links the dataset's own queries
over ``POST /v1/link`` on one keep-alive connection (with 404, 410, 400
and 501 answers interleaved, each of which must leave the stream clean
for the next request), scrapes ``GET /v1/metrics``, and writes a
``BENCH_serving.json`` summary (latency p50/p95, cache hit rate, batch
stats) into the test's workspace, so a test run never modifies the
checkout.  Marked slow, like the CLI lifecycle test it extends.
"""

import http.client
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


def _request(conn, method, path, payload=None):
    """``(status, headers, JSON body)`` of one request on ``conn``."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    conn.request(
        method, path, body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    return response.status, response, json.loads(response.read())


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
             "--max-batch-size", "8"],
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
        host, port = base.split("//", 1)[1].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=60.0)

        def link(batch):
            status, _, payload = _request(
                conn, "POST", "/v1/link", {"queries": batch}
            )
            assert status == 200, payload
            results = payload["results"]
            assert [result["query"] for result in results] == batch
            for result in results:
                assert set(result["timing"]) == {"OR", "CR", "ED", "RT"}
            return [[c["cid"] for c in result["ranked"]] for result in results]

        # Error answers interleaved with the links on one keep-alive
        # connection: each must leave the stream clean for the next.
        interleaved = [
            ("POST", "/v1/nope", {"query": "x"}, 404, "not_found"),
            ("POST", "/link", {"query": "x"}, 410, "gone"),
            ("GET", "/v1/traces?limit=x", None, 400, "bad_request"),
        ]
        rankings = []
        try:
            conn.connect()
            sock = conn.sock
            for start in range(0, len(queries), 4):
                rankings.append(link(queries[start : start + 4]))
                if interleaved:
                    method, path, payload, status, code = interleaved.pop(0)
                    got, _, answer = _request(conn, method, path, payload)
                    assert (got, answer["error"]["code"]) == (status, code)
                assert conn.sock is sock, "the server dropped the connection"
            linked = sum(len(batch) for batch in rankings)
            assert linked == len(queries)

            # An unsupported method answers in the JSON envelope and
            # closes the connection, as a protocol error should; the
            # client reconnects and the next answers are unchanged.
            status, response, answer = _request(
                conn, "PUT", "/v1/link", {"query": "x"}
            )
            assert status == 501
            assert answer["error"]["code"] == "unsupported_method"
            assert response.getheader("Connection") == "close"
            assert link(queries[:4]) == rankings[0]

            status, _, metrics = _request(conn, "GET", "/v1/metrics")
            assert status == 200
        finally:
            conn.close()
        assert metrics["ready"] is True
        assert metrics["counters"]["requests_total"] >= linked
        request_histogram = metrics["histograms"]["request_seconds"]
        assert request_histogram["count"] >= 1
        assert metrics["engine"]["retrievals"] > 0
        assert metrics["counters"]["warmup_concepts"] > 0

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
            "warmup_concepts": metrics["counters"]["warmup_concepts"],
            "engine": {
                key: metrics["engine"][key]
                for key in ("concepts", "retrievals", "score_batches")
            },
            "frontend": metrics["frontend"],
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
