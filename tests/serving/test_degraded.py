"""Degraded-mode serving: Phase II failure/budget fallback, warm retry."""

import json
import math
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.config import LinkerConfig, ServingConfig
from repro.core.linker import NeuralConceptLinker
from repro.serving.server import create_server, run_server
from repro.serving.service import LinkingService
from repro.utils.errors import DataError
from repro.utils.faults import FaultSpec, fault_injection


class TestLinkerDegradedMode:
    def test_phase2_error_falls_back_to_keyword_ranking(self, make_linker):
        linker = make_linker()
        clean = linker.link("ckd stage 5")
        assert not clean.degraded
        with fault_injection({"linker.phase2": FaultSpec(times=-1)}):
            result = linker.link("ckd stage 5")
        assert result.degraded
        assert result.degraded_reason.startswith("error:")
        # Phase I still answers: same candidate set, keyword order.
        assert {c.cid for c in result.ranked} == {c.cid for c in clean.ranked}
        keyword_scores = [c.keyword_score for c in result.ranked]
        assert keyword_scores == sorted(keyword_scores, reverse=True)
        assert all(c.log_prob == -math.inf for c in result.ranked)
        # OR/CR/RT are still timed; ED never completed but is recorded.
        assert set(dict(result.timing.items())) >= {"OR", "CR", "RT"}

    def test_degrade_on_error_false_reraises(self, make_linker):
        linker = make_linker(degrade_on_error=False)
        with fault_injection({"linker.phase2": FaultSpec(times=-1)}):
            with pytest.raises(RuntimeError):
                linker.link("ckd stage 5")

    def test_phase2_budget_degrades(self, make_linker):
        linker = make_linker(phase2_budget_s=0.01)
        with fault_injection(
            {"linker.phase2": FaultSpec(action="delay", delay_s=0.05, times=-1)}
        ):
            result = linker.link("ckd stage 5")
        assert result.degraded
        assert result.degraded_reason.startswith("budget:")
        assert result.ranked  # Phase I candidates still served

    def test_zero_budget_means_unlimited(self, make_linker):
        linker = make_linker(phase2_budget_s=0.0)
        result = linker.link("ckd stage 5")
        assert not result.degraded

    def test_batched_phase2_error_falls_back_to_keyword_ranking(
        self, make_linker
    ):
        # Regression guard for the batched hot path: a failure inside
        # the all-at-once decode (the ``linker.phase2.batch`` probe
        # site) degrades to Phase I exactly like a candidate-loop failure.
        linker = make_linker()
        clean = linker.link("ckd stage 5")
        assert not clean.degraded
        with fault_injection({"linker.phase2.batch": FaultSpec(times=-1)}):
            result = linker.link("ckd stage 5")
        assert result.degraded
        assert result.degraded_reason.startswith("error:")
        assert {c.cid for c in result.ranked} == {c.cid for c in clean.ranked}
        keyword_scores = [c.keyword_score for c in result.ranked]
        assert keyword_scores == sorted(keyword_scores, reverse=True)
        assert all(c.log_prob == -math.inf for c in result.ranked)

    def test_batched_phase2_error_without_degrade_reraises(self, make_linker):
        linker = make_linker(degrade_on_error=False)
        with fault_injection({"linker.phase2.batch": FaultSpec(times=-1)}):
            with pytest.raises(RuntimeError):
                linker.link("ckd stage 5")

    def test_batched_phase2_budget_degrades(self, make_linker):
        # The batched decode is all-or-nothing, so the overrun is
        # detected after it returns — the query still degrades with a
        # ``budget:`` reason, like an overrun in the candidate loop.
        linker = make_linker(phase2_budget_s=0.01)
        with fault_injection(
            {
                "linker.phase2.batch": FaultSpec(
                    action="delay", delay_s=0.05, times=-1
                )
            }
        ):
            result = linker.link("ckd stage 5")
        assert result.degraded
        assert result.degraded_reason.startswith("budget:")
        assert result.ranked

    def test_decode_overrun_spares_queries_outside_the_decode(
        self, make_linker
    ):
        # Every "anemia" candidate is fully covered (exact 0.0, no decode
        # row), so the shared decode's overrun is not charged to it.
        linker = make_linker(phase2_budget_s=0.01)
        with fault_injection(
            {
                "linker.phase2.batch": FaultSpec(
                    action="delay", delay_s=0.05, times=-1
                )
            }
        ):
            slow, covered = linker.link_batch(["ckd stage 5", "anemia"])
        assert slow.degraded
        assert slow.degraded_reason.startswith("budget:")
        assert not covered.degraded
        assert [c.log_prob for c in covered.ranked] == [0.0] * len(
            covered.ranked
        )

    def test_link_batch_degrades_per_query(self, make_linker):
        linker = make_linker()
        # Fail exactly one query's Phase II: the first probe hit belongs
        # to the first query in the batch.
        with fault_injection({"linker.phase2": FaultSpec(times=1)}):
            results = linker.link_batch(["ckd stage 5", "hemorrhagic anemia"])
        assert results[0].degraded
        assert not results[1].degraded
        assert results[1].ranked and all(
            math.isfinite(c.log_prob) for c in results[1].ranked
        )


class TestServiceDegradedMetrics:
    def test_degraded_counters(self, make_linker):
        service = LinkingService(
            make_linker(), ServingConfig(warm_on_start=False)
        )
        service.start(wait=True)
        try:
            with fault_injection({"linker.phase2": FaultSpec(times=-1)}):
                result = service.link("ckd stage 5")
            assert result.degraded
            snapshot = service.snapshot()
            counters = snapshot["counters"]
            assert counters["requests_degraded"] == 1
            assert counters["phase2_failures"] == 1
            assert counters["requests_total"] == 1
            # A degraded response is a served response, not a failure.
            assert counters.get("requests_failed", 0) == 0
        finally:
            service.stop()

    def test_budget_counter_distinct_from_failures(self, make_linker):
        service = LinkingService(
            make_linker(phase2_budget_s=0.005),
            ServingConfig(warm_on_start=False),
        )
        service.start(wait=True)
        try:
            with fault_injection(
                {"linker.phase2": FaultSpec(action="delay", delay_s=0.05, times=-1)}
            ):
                result = service.link("ckd stage 5")
            assert result.degraded
            counters = service.snapshot()["counters"]
            assert counters["phase2_budget_exceeded"] == 1
            assert counters.get("phase2_failures", 0) == 0
        finally:
            service.stop()


class TestWarmupRetry:
    def test_warm_retries_then_succeeds(self, make_linker):
        service = LinkingService(
            make_linker(),
            ServingConfig(
                warm_on_start=True, warm_retries=3, warm_backoff_s=0.01
            ),
        )
        with fault_injection(
            {"service.warm": FaultSpec(action="io_error", times=2)}
        ):
            service.start(wait=True)
        try:
            assert service.ready
            counters = service.snapshot()["counters"]
            assert counters["warmup_failures"] == 2
            assert counters["warmup_retries"] == 2
            assert service._warm_error is None
        finally:
            service.stop()

    def test_warm_exhausted_still_serves_cold(self, make_linker):
        service = LinkingService(
            make_linker(),
            ServingConfig(
                warm_on_start=True, warm_retries=1, warm_backoff_s=0.01
            ),
        )
        with fault_injection(
            {"service.warm": FaultSpec(action="io_error", times=-1)}
        ):
            service.start()
            assert service._ready.wait(10.0)
        try:
            assert service.ready  # degraded-but-serving beats dead
            assert service.snapshot()["counters"]["warmup_failures"] == 2
            result = service.link("ckd stage 5")
            assert result.ranked
        finally:
            service.stop()


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


class TestDegradedOverHTTP:
    @pytest.fixture
    def running_server(self, make_linker):
        service = LinkingService(
            make_linker(),
            ServingConfig(port=0, warm_on_start=False),
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
        yield f"http://127.0.0.1:{server.port}", service
        server.shutdown()
        thread.join(5.0)

    def test_link_returns_200_degraded_with_phase1_ranking(self, running_server):
        base, service = running_server
        with fault_injection({"linker.phase2": FaultSpec(times=-1)}):
            status, payload = _post(base, "/v1/link", {"query": "ckd stage 5"})
        assert status == 200
        (result,) = payload["results"]
        assert result["degraded"] is True
        assert result["degraded_reason"].startswith("error:")
        assert result["ranked"], "Phase I ranking must still be served"
        for entry in result["ranked"]:
            assert entry["log_prob"] is None
            assert entry["loss"] is None
            assert entry["keyword_score"] > 0
        # Strict JSON: the payload survived json.load, and metrics report
        # the degradation for BENCH runs.
        counters = service.snapshot()["counters"]
        assert counters["requests_degraded"] == 1
        assert counters["phase2_failures"] == 1

    def test_healthy_request_not_marked_degraded(self, running_server):
        base, _ = running_server
        status, payload = _post(base, "/v1/link", {"query": "ckd stage 5"})
        assert status == 200
        (result,) = payload["results"]
        assert result["degraded"] is False
        assert result["degraded_reason"] is None
        assert all(entry["log_prob"] is not None for entry in result["ranked"])

    def test_metrics_exposes_pipeline_metadata(self, running_server):
        base, service = running_server
        service.linker.pipeline_metadata = {"seed": 7, "resumed_from": None}
        status, payload = _post(base, "/v1/link", {"query": "ckd stage 5"})
        assert status == 200
        with urllib.request.urlopen(base + "/v1/metrics", timeout=10.0) as response:
            metrics = json.load(response)
        assert metrics["pipeline"] == {"seed": 7, "resumed_from": None}
