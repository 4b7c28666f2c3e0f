"""End-to-end tracing: /traces, request IDs, log correlation, faults.

One warm server (sampling every request) backs the HTTP tests; the
service-level tests build their own instances around the shared model.
"""

import io
import json
import logging
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import ServingConfig
from repro.obs.logjson import configure_json_logging
from repro.serving.server import create_server, run_server
from repro.serving.service import LinkingService
from repro.utils.faults import FaultSpec, fault_injection


def _post(base, path, payload, headers=None, timeout=30.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.load(error)


def _get(base, path, timeout=30.0):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _get_json(base, path, timeout=30.0):
    status, text = _get(base, path, timeout=timeout)
    return status, json.loads(text)


def _spans_by_name(trace_dict):
    by_name = {}
    for span in trace_dict["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    return by_name


@pytest.fixture(scope="module")
def traced_server(trained_pipeline):
    from repro.core.config import LinkerConfig
    from repro.core.linker import NeuralConceptLinker

    ontology, kb, model = trained_pipeline
    linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
    service = LinkingService(
        linker,
        ServingConfig(
            port=0, trace_sample_rate=1.0, trace_buffer=64,
            max_batch_size=8,
        ),
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


class TestTraceTree:
    def test_link_trace_retrievable_with_full_span_tree(self, traced_server):
        base, _ = traced_server
        status, headers, payload = _post(
            base, "/v1/link", {"query": "ckd stage 5"},
            headers={"X-Request-ID": "req-tree-1"},
        )
        assert status == 200
        assert headers["X-Request-ID"] == "req-tree-1"
        assert payload["request_id"] == "req-tree-1"

        status, body = _get_json(base, "/v1/traces?request_id=req-tree-1")
        assert status == 200
        (trace_dict,) = body["traces"]
        assert trace_dict["request_id"] == "req-tree-1"
        by_name = _spans_by_name(trace_dict)
        # The acceptance tree: HTTP root -> service request -> the
        # linker's rewrite / retrieve / phase2 decode / re-rank.
        for name in (
            "http.link",
            "service.request",
            "linker.rewrite",
            "linker.retrieve",
            "linker.phase2",
            "linker.phase2.decode",
            "linker.rerank",
        ):
            assert name in by_name, (name, sorted(by_name))
        root = by_name["http.link"][0]
        assert root["parent_id"] is None
        assert root["tags"]["status"] == 200
        request = by_name["service.request"][0]
        assert request["parent_id"] == root["span_id"]
        assert request["tags"]["query"] == "ckd stage 5"
        linker_parents = {
            by_name[name][0]["parent_id"]
            for name in ("linker.rewrite", "linker.retrieve",
                         "linker.phase2", "linker.rerank")
        }
        assert linker_parents == {request["span_id"]}
        decode = by_name["linker.phase2.decode"][0]
        assert decode["parent_id"] == by_name["linker.phase2"][0]["span_id"]
        # Figure 11 taxonomy via phase tags.
        assert by_name["linker.rewrite"][0]["tags"]["phase"] == "OR"
        assert by_name["linker.retrieve"][0]["tags"]["phase"] == "CR"
        assert by_name["linker.phase2"][0]["tags"]["phase"] == "ED"
        assert by_name["linker.rerank"][0]["tags"]["phase"] == "RT"
        assert by_name["linker.retrieve"][0]["tags"]["candidates"] >= 1

    def test_request_id_generated_when_header_absent(self, traced_server):
        base, _ = traced_server
        status, headers, payload = _post(base, "/v1/link", {"query": "anemia"})
        assert status == 200
        request_id = payload["request_id"]
        assert request_id
        assert headers["X-Request-ID"] == request_id
        status, body = _get_json(base, f"/v1/traces?request_id={request_id}")
        assert status == 200
        assert body["traces"][0]["request_id"] == request_id

    def test_traces_listing_limit_and_stats(self, traced_server):
        base, _ = traced_server
        for index in range(3):
            _post(base, "/v1/link", {"query": "ckd stage 5"},
                  headers={"X-Request-ID": f"req-list-{index}"})
        status, body = _get_json(base, "/v1/traces?limit=2")
        assert status == 200
        assert len(body["traces"]) == 2
        # Most recent first.
        assert body["traces"][0]["started_at"] >= body["traces"][1]["started_at"]
        assert body["stats"]["sample_rate"] == 1.0
        assert body["stats"]["finished"] >= 3

        status, body = _get_json(base, "/v1/traces?request_id=req-nope")
        assert status == 404
        assert body["error"]["code"] == "trace_not_found"

        status, body = _get_json(base, "/v1/traces?limit=abc")
        assert status == 400

    def test_tracer_stats_in_metrics_snapshot(self, traced_server):
        base, _ = traced_server
        status, payload = _get_json(base, "/v1/metrics")
        assert status == 200
        assert payload["traces"]["sample_rate"] == 1.0
        assert payload["traces"]["retained"] >= 1


class TestLogCorrelation:
    def test_json_log_lines_carry_the_request_id(self, traced_server):
        base, _ = traced_server
        stream = io.StringIO()
        handler = configure_json_logging(stream=stream)
        try:
            status, _, _ = _post(
                base, "/v1/link", {"query": "ckd stage 5"},
                headers={"X-Request-ID": "req-logged"},
            )
            assert status == 200
            records = [
                json.loads(line)
                for line in stream.getvalue().splitlines()
            ]
        finally:
            logging.getLogger("repro").removeHandler(handler)
        linked = [
            r for r in records if r["message"].startswith("linked 1 queries")
        ]
        assert linked, records
        assert linked[-1]["request_id"] == "req-logged"
        assert linked[-1]["logger"] == "repro.serving.server"


class TestCrossThreadPropagation:
    def test_concurrent_traces_do_not_cross_contaminate(self, traced_server):
        """Batched requests from different traces share one worker batch;
        every trace must still contain exactly its own query's spans."""
        base, _ = traced_server
        queries = {
            f"req-concurrent-{index}": query
            for index, query in enumerate(
                ["ckd stage 5", "scorbutic anemia", "acute abdomen",
                 "protein deficiency anemia"] * 4
            )
        }

        def do_request(item):
            request_id, query = item
            status, _, _ = _post(
                base, "/v1/link", {"query": query},
                headers={"X-Request-ID": request_id},
            )
            assert status == 200

        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(do_request, queries.items()))

        for request_id, query in queries.items():
            status, body = _get_json(base, f"/v1/traces?request_id={request_id}")
            assert status == 200, request_id
            by_name = _spans_by_name(body["traces"][0])
            assert len(by_name["service.request"]) == 1
            assert by_name["service.request"][0]["tags"]["query"] == query
            # The linker spans ran on the dispatcher thread; they must
            # land under this request's span, once each.
            assert len(by_name["linker.rewrite"]) == 1
            assert len(by_name["linker.phase2"]) == 1


class TestFaultEvents:
    def test_fired_probe_is_an_event_in_the_trace(self, traced_server):
        base, _ = traced_server
        with fault_injection({"linker.phase2": FaultSpec()}):
            status, _, payload = _post(
                base, "/v1/link", {"query": "ckd stage 5"},
                headers={"X-Request-ID": "req-fault"},
            )
        assert status == 200
        (result,) = payload["results"]
        assert result["degraded"]
        assert result["degraded_reason"].startswith("error:")

        status, body = _get_json(base, "/v1/traces?request_id=req-fault")
        assert status == 200
        events = [
            (span["name"], event)
            for span in body["traces"][0]["spans"]
            for event in span["events"]
        ]
        fired = [e for _, e in events if e["name"] == "fault.fired"]
        assert fired, events
        assert fired[0]["attrs"] == {
            "site": "linker.phase2", "action": "raise",
        }
        # The degradation is also tagged on the ED span.
        by_name = _spans_by_name(body["traces"][0])
        assert by_name["linker.phase2"][0]["tags"]["degraded_reason"]


class TestSamplingOff:
    def test_rate_zero_serves_but_records_nothing(self, make_linker):
        service = LinkingService(
            make_linker(),
            ServingConfig(
                port=0, warm_on_start=False, trace_sample_rate=0.0
            ),
        )
        service.start()
        try:
            result = service.link("ckd stage 5")
            assert result.ranked
            stats = service.tracer.stats()
            assert stats["sampled"] == 0
            assert service.tracer.traces() == []
        finally:
            service.stop()
