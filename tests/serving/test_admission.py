"""Admission control: bounded queues, shedding, deadlines, backpressure.

Three layers of proof:

* the :class:`AdmissionQueue` invariants, property-tested as a pure
  data structure — depth never exceeds the bound, and every offered
  job is conserved (taken, displaced, shed, or still queued; nothing
  silently lost);
* the HTTP surface — a shed request returns the v1 error envelope
  (503, code ``shed``) carrying the caller's request ID;
* the multi-process tier under genuine overload — every request
  resolves as served or shed, the queue never exceeds its bound, and
  the served-request p99 stays within the configured deadline budget
  plus one batch's service time (shedding is what keeps the tail
  finite).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SHED_POLICIES, ServingConfig
from repro.serving.frontend import AdmissionQueue, FrontendJob, ShedError
from repro.serving.server import create_server, run_server
from repro.serving.service import LinkingService
from repro.utils.faults import FaultSpec, fault_injection

from tests.serving.conftest import SERVING_QUERIES


class TestAdmissionQueueProperties:
    @pytest.mark.property
    @settings(max_examples=120, deadline=None)
    @given(
        bound=st.integers(min_value=0, max_value=5),
        policy=st.sampled_from(SHED_POLICIES),
        ops=st.lists(st.booleans(), max_size=60),  # True=offer, False=take
    )
    def test_bound_invariant_and_conservation(self, bound, policy, ops):
        queue = AdmissionQueue(bound, policy=policy)
        admitted = displaced = shed = taken = 0
        for is_offer in ops:
            if is_offer:
                job = FrontendJob(["q"], [None], admitted_at=0.0)
                try:
                    dropped = queue.offer(job)
                except ShedError as error:
                    shed += 1
                    assert error.reason == "queue_full"
                    assert policy == "reject_new"
                else:
                    admitted += 1
                    displaced += len(dropped)
                    if dropped:
                        assert policy == "drop_oldest"
            else:
                job, expired = queue.take(now=0.0)
                assert not expired  # no deadline configured
                if job is not None:
                    taken += 1
            if bound > 0:
                assert len(queue) <= bound
        # Conservation: every admitted job is exactly one of taken,
        # displaced, or still queued; every rejection raised.
        assert admitted == taken + displaced + len(queue.drain())
        if bound == 0:
            assert shed == 0 and displaced == 0

    def test_deadline_expiry_sheds_at_take(self):
        queue = AdmissionQueue(bound=0, deadline_s=1.0)
        stale = FrontendJob(["old"], [None], admitted_at=0.0)
        fresh = FrontendJob(["new"], [None], admitted_at=5.0)
        queue.offer(stale)
        queue.offer(fresh)
        job, expired = queue.take(now=5.5)
        assert job is fresh
        assert expired == [stale]
        assert queue.take(now=5.5) == (None, [])

    def test_fifo_preserved_and_requeue_front(self):
        queue = AdmissionQueue(bound=0)
        jobs = [
            FrontendJob([str(index)], [None], admitted_at=0.0)
            for index in range(3)
        ]
        for job in jobs:
            queue.offer(job)
        first, _ = queue.take(now=0.0)
        assert first is jobs[0]
        queue.requeue_front(first)  # crash re-dispatch keeps its place
        assert queue.take(now=0.0)[0] is jobs[0]
        assert queue.take(now=0.0)[0] is jobs[1]


def _post(base, path, payload, headers=None, timeout=30.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestShedEnvelopeOverHTTP:
    def test_503_shed_carries_envelope_and_request_id(self, make_linker):
        linker = make_linker()
        entered = threading.Event()
        release = threading.Event()
        original = linker.link_batch

        def gated(queries, **kwargs):
            entered.set()
            assert release.wait(30.0), "test never released the dispatcher"
            return original(queries, **kwargs)

        linker.link_batch = gated  # type: ignore[method-assign]
        service = LinkingService(
            linker,
            ServingConfig(port=0, warm_on_start=False, admission_queue=1),
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
        background = []
        try:
            # Request 1 occupies the dispatcher (blocked in
            # link_batch); request 2 fills the one queue slot.
            for query in ("ckd stage 5", "anemia blood loss"):
                worker = threading.Thread(
                    target=_post, args=(base, "/v1/link", {"query": query})
                )
                worker.start()
                background.append(worker)
                if not entered.is_set():
                    assert entered.wait(10.0)
            deadline = time.monotonic() + 10.0
            while (
                len(service._frontend.queue) < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert len(service._frontend.queue) >= 1
            # Request 3 finds the queue at its bound: shed, not queued.
            status, payload = _post(
                base,
                "/v1/link",
                {"query": "scorbutic anemia"},
                headers={"X-Request-ID": "shed-drill-1"},
            )
            assert status == 503
            assert payload["error"]["code"] == "shed"
            assert payload["error"]["message"]
            assert payload["error"]["request_id"] == "shed-drill-1"
            assert service.metrics.counter("requests_shed").value >= 1
        finally:
            release.set()
            for worker in background:
                worker.join(timeout=30.0)
            server.shutdown()
            thread.join(5.0)
            service.stop()
        assert not any(worker.is_alive() for worker in background)


class TestProcPoolOverload:
    CLIENTS = 8
    REQUESTS = 6
    DEADLINE_MS = 1000.0
    QUEUE_BOUND = 2
    MAX_BATCH = 4

    def test_overload_sheds_bounds_queue_and_tail(
        self, make_procpool_service
    ):
        # One worker made deliberately slow (a delay fault on every
        # Phase-II candidate, inherited at fork) so 8 closed-loop
        # clients genuinely overload it.
        with fault_injection(
            {
                "linker.phase2": FaultSpec(
                    action="delay", delay_s=0.01, times=-1
                )
            }
        ):
            service = make_procpool_service(
                workers=1,
                warm_on_start=False,
                admission_queue=self.QUEUE_BOUND,
                deadline_ms=self.DEADLINE_MS,
                max_batch_size=self.MAX_BATCH,
            ).start(wait=True)
            started = time.perf_counter()
            service.link("ckd stage 5")
            baseline = time.perf_counter() - started

            served_latencies = []
            shed_reasons = []
            failures = []
            depth_violations = []
            lock = threading.Lock()

            def client(index: int) -> None:
                for round_trip in range(self.REQUESTS):
                    query = SERVING_QUERIES[
                        (index + round_trip) % len(SERVING_QUERIES)
                    ]
                    begin = time.perf_counter()
                    try:
                        service.link_many([query], timeout=60.0)
                    except ShedError as error:
                        with lock:
                            shed_reasons.append(error.reason)
                    except Exception as error:  # noqa: BLE001 - collected
                        with lock:
                            failures.append(error)
                    else:
                        with lock:
                            served_latencies.append(
                                time.perf_counter() - begin
                            )

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            # Poll the queue-depth invariant while the overload runs.
            while any(thread.is_alive() for thread in threads):
                depth = service.snapshot()["frontend"]["queue_depth"]
                if depth > self.QUEUE_BOUND:
                    depth_violations.append(depth)
                time.sleep(0.01)
            for thread in threads:
                thread.join(timeout=120.0)

        assert not any(thread.is_alive() for thread in threads)
        # Availability: every request resolved as served or shed.
        assert not failures
        issued = self.CLIENTS * self.REQUESTS
        assert len(served_latencies) + len(shed_reasons) == issued
        # Overload genuinely shed, with reasons from the documented set.
        assert shed_reasons
        assert set(shed_reasons) <= {"queue_full", "deadline", "dropped_oldest"}
        # The queue never exceeded its bound.
        assert not depth_violations
        # Tail: a served request waits at most the queueing deadline,
        # then rides one fused batch.  Without deadline shedding the
        # backlog would push the tail toward issued × per-request time.
        ordered = sorted(served_latencies)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))]
        budget = (
            self.DEADLINE_MS / 1000.0
            + 3.0 * self.MAX_BATCH * max(baseline, 0.05)
            + 0.5
        )
        assert p99 <= budget, (p99, budget, baseline)
