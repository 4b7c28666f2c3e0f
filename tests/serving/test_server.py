"""HTTP-level tests for the serving subsystem.

One real server (ephemeral port, warm-started) backs most tests; the
readiness tests build their own gated instances.
"""

import json
import logging
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import API_VERSION
from repro.core.config import ServingConfig
from repro.serving.server import create_server, run_server
from repro.serving.service import LinkingService, ServiceNotReadyError

from tests.serving.conftest import SERVING_QUERIES, GatedWarmup


def _post(base, path, payload, timeout=30.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _get(base, path, timeout=30.0):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


@pytest.fixture(scope="module")
def running_server(trained_pipeline):
    from repro.core.config import LinkerConfig
    from repro.core.linker import NeuralConceptLinker

    ontology, kb, model = trained_pipeline
    linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
    service = LinkingService(
        linker,
        ServingConfig(port=0, max_batch_size=8, request_timeout_s=30.0),
    )
    service.start(wait=True)
    server = create_server(service, port=0)
    thread = threading.Thread(
        target=run_server,
        args=(server,),
        kwargs={"install_signal_handlers": False},
        daemon=True,
    )
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    yield base, service
    server.shutdown()
    thread.join(5.0)


class TestHealthAndReadiness:
    def test_healthz_ok(self, running_server):
        base, _ = running_server
        status, payload = _get(base, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["api_version"] == API_VERSION

    def test_readyz_ok_after_warmup(self, running_server):
        base, _ = running_server
        status, _ = _get(base, "/readyz")
        assert status == 200

    def test_readyz_503_until_warmup_completes(self, make_linker):
        linker = make_linker()
        gate = GatedWarmup(linker)
        service = LinkingService(linker, ServingConfig(port=0))
        server = create_server(service, port=0)
        thread = threading.Thread(
            target=run_server,
            args=(server,),
            kwargs={"install_signal_handlers": False},
            daemon=True,
        )
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            service.start()
            assert gate.entered.wait(10.0)
            status, payload = _get(base, "/readyz")
            assert status == 503
            assert payload["error"]["code"] == "not_ready"
            # /link is rejected with the same structured 503.
            status, payload = _post(base, "/v1/link", {"query": "ckd stage 5"})
            assert status == 503
            assert payload["error"]["code"] == "not_ready"
            # Liveness is independent of readiness.
            assert _get(base, "/healthz")[0] == 200
            gate.release.set()
            deadline = threading.Event()
            for _ in range(100):
                if _get(base, "/readyz")[0] == 200:
                    break
                deadline.wait(0.05)
            assert _get(base, "/readyz")[0] == 200
            assert _post(base, "/v1/link", {"query": "ckd stage 5"})[0] == 200
        finally:
            server.shutdown()
            thread.join(5.0)

    def test_no_warm_is_ready_immediately(self, make_linker):
        service = LinkingService(
            make_linker(), ServingConfig(port=0, warm_on_start=False)
        )
        service.start()
        assert service.ready
        service.stop()
        assert not service.healthy
        with pytest.raises(ServiceNotReadyError):
            service.link("ckd stage 5")


class TestLinkEndpoint:
    def test_single_query_shape(self, running_server):
        base, _ = running_server
        status, payload = _post(base, "/v1/link", {"query": "ckd stage 5"})
        assert status == 200
        (result,) = payload["results"]
        assert result["query"] == "ckd stage 5"
        assert result["ranked"][0]["cid"] == "N18.5"
        top = result["ranked"][0]
        assert {"cid", "log_prob", "loss", "keyword_score", "description"} <= set(top)
        assert top["description"] == "chronic kidney disease, stage 5"
        assert set(result["timing"]) == {"OR", "CR", "ED", "RT"}

    def test_multi_query_preserves_order(self, running_server):
        base, _ = running_server
        queries = ["ckd stage 5", "scorbutic anemia", "acute abdomen"]
        status, payload = _post(base, "/v1/link", {"queries": queries})
        assert status == 200
        assert [r["query"] for r in payload["results"]] == queries

    def test_k_and_top_controls(self, running_server):
        base, _ = running_server
        status, payload = _post(
            base, "/v1/link", {"query": "anemia", "k": 5, "top": 2}
        )
        assert status == 200
        assert len(payload["results"][0]["ranked"]) <= 2

    def test_no_match_returns_empty_ranking(self, running_server):
        base, _ = running_server
        status, payload = _post(base, "/v1/link", {"query": "qqqqq zzzzz"})
        assert status == 200
        assert payload["results"][0]["ranked"] == []


class TestConcurrencyDeterminism:
    def test_32_concurrent_requests_match_sequential(
        self, running_server, make_linker
    ):
        """The acceptance criterion: 32 in-flight requests, fused by the
        dispatcher into arbitrary batch shapes, must return rankings
        identical (cids and scores) to a fresh sequential linker."""
        base, _ = running_server
        sequential = make_linker()
        queries = [SERVING_QUERIES[i % len(SERVING_QUERIES)] for i in range(32)]
        expected = {
            query: [
                [c.cid, pytest.approx(c.log_prob)]
                for c in sequential.link(query).ranked
            ]
            for query in set(queries)
        }

        def do_request(query):
            status, payload = _post(base, "/v1/link", {"query": query})
            assert status == 200
            return query, payload["results"][0]["ranked"]

        with ThreadPoolExecutor(max_workers=32) as pool:
            responses = list(pool.map(do_request, queries))
        assert len(responses) == 32
        for query, ranked in responses:
            got = [[c["cid"], c["log_prob"]] for c in ranked]
            assert got == expected[query], query

    def test_batcher_actually_coalesced_something(self, running_server):
        base, _ = running_server
        _, payload = _get(base, "/v1/metrics")
        # More queries than link_batch calls: some call fused requests.
        sizes = payload["histograms"]["batch_size"]
        assert sizes["sum"] > sizes["count"] >= 1
        assert payload["counters"]["batches_total"] == sizes["count"]


class TestMetricsEndpoint:
    def test_snapshot_sections(self, running_server):
        base, _ = running_server
        _post(base, "/v1/link", {"query": "ckd stage 5"})
        status, payload = _get(base, "/v1/metrics")
        assert status == 200
        assert payload["ready"] is True
        assert payload["counters"]["requests_total"] >= 1
        request_histogram = payload["histograms"]["request_seconds"]
        assert {"count", "sum", "mean", "p50", "p95", "p99"} <= set(request_histogram)
        assert request_histogram["p50"] <= request_histogram["p99"]
        for phase in ("OR", "CR", "ED", "RT"):
            assert payload["histograms"][f"phase_seconds.{phase}"]["count"] >= 1
        assert payload["engine"]["retrievals"] >= 1
        assert "caches" not in payload
        assert payload["config"]["max_batch_size"] == 8

    def test_warm_up_counts_every_concept(self, running_server):
        base, service = running_server
        _, payload = _get(base, "/v1/metrics")
        concepts = len(service.linker.candidates.indexed_cids)
        assert payload["counters"]["warmup_concepts"] == concepts > 0
        assert payload["histograms"]["warmup_seconds"]["count"] == 1

    def test_artifact_backed_warm_up_logs_and_counts_concepts(
        self, make_worker_linker, caplog
    ):
        linker = make_worker_linker()
        concepts = len(linker.engine.artifact)
        service = LinkingService(linker, ServingConfig())
        with caplog.at_level(logging.INFO, logger="repro.serving.service"):
            service.start(wait=True)
        try:
            counters = service.snapshot()["counters"]
            assert counters["warmup_concepts"] == concepts > 0
            assert f"warm-up done: {concepts} concepts" in caplog.text
        finally:
            service.stop()


class TestErrorHandling:
    def test_unknown_route_404(self, running_server):
        base, _ = running_server
        status, payload = _get(base, "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert _post(base, "/nope", {})[0] == 404

    def test_invalid_json_400(self, running_server):
        base, _ = running_server
        request = urllib.request.Request(
            base + "/v1/link",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400
        payload = json.load(excinfo.value)
        assert payload["error"]["code"] == "bad_request"

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"query": ""},
            {"query": 7},
            {"queries": []},
            {"queries": ["ok", ""]},
            {"query": "x", "queries": ["y"]},
            {"query": "x", "k": 0},
            {"query": "x", "k": "five"},
            {"query": "x", "top": 0},
            ["not", "an", "object"],
        ],
    )
    def test_bad_bodies_400(self, running_server, body):
        base, _ = running_server
        status, payload = _post(base, "/v1/link", body)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert payload["error"]["message"]

    def test_empty_body_400(self, running_server):
        base, _ = running_server
        request = urllib.request.Request(base + "/v1/link", data=b"")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400


class TestGracefulShutdown:
    def test_stop_drains_and_reports_unhealthy(self, make_linker):
        service = LinkingService(
            make_linker(), ServingConfig(port=0, warm_on_start=False)
        )
        service.start()
        assert service.link("ckd stage 5").ranked
        service.stop()
        assert not service.healthy
        assert not service.ready
        service.stop()  # idempotent
