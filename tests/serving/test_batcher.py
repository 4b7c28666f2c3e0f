"""The dispatcher's in-process executor: fusion, results, errors, stop.

``AsyncFrontend(run_batch=...)`` is what ``workers=0`` runs on: the
dispatcher thread calls the batch function inline over whatever is
queued when it frees up, up to ``max_batch_size`` queries.
"""

import sys
import threading
import time

import pytest

from repro.core.config import ServingConfig
from repro.serving.frontend import AdmissionQueue, AsyncFrontend, ShedError
from repro.utils.errors import ConfigurationError


def identity_handler(queries, ks, contexts):
    return [query * 2 for query in queries]


def _frontend(handler, **kwargs):
    return AsyncFrontend(run_batch=handler, **kwargs)


def _submit(frontend, value):
    """One single-query burst; returns its future."""
    return frontend.submit([value], [None])


class _Gate:
    """A handler wrapper that holds the first call until released, so
    later submissions queue up behind it and fuse deterministically."""

    def __init__(self, handler):
        self.handler = handler
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sizes = []

    def __call__(self, queries, ks, contexts):
        self.sizes.append(len(queries))
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(10.0), "test never released the gate"
        return self.handler(queries, ks, contexts)


class TestConfigValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(max_batch_size=0)


class TestFlushOnSize:
    def test_full_batch_dispatches_without_waiting_for_deadline(self):
        gate = _Gate(lambda queries, ks, contexts: list(queries))
        frontend = _frontend(gate, max_batch_size=4)
        try:
            started = time.monotonic()
            blocker = _submit(frontend, -1)
            assert gate.entered.wait(5.0)
            futures = [_submit(frontend, i) for i in range(4)]
            gate.release.set()
            assert blocker.result(5.0) == [-1]
            results = [future.result(5.0) for future in futures]
            elapsed = time.monotonic() - started
            assert results == [[0], [1], [2], [3]]
            assert elapsed < 5.0
            # The four queued bursts fill the cap exactly: one call.
            assert gate.sizes == [1, 4]
            assert frontend.counters["jobs_ok"] == 2
        finally:
            frontend.stop()

    def test_overflow_splits_into_multiple_batches(self):
        gate = _Gate(lambda queries, ks, contexts: list(queries))
        frontend = _frontend(gate, max_batch_size=3)
        try:
            blocker = _submit(frontend, -1)
            assert gate.entered.wait(5.0)
            futures = [_submit(frontend, i) for i in range(10)]
            gate.release.set()
            blocker.result(5.0)
            assert [f.result(5.0) for f in futures] == [[i] for i in range(10)]
            assert sum(gate.sizes[1:]) == 10
            assert max(gate.sizes) <= 3
        finally:
            frontend.stop()


class TestFlushOnDeadline:
    def test_zero_wait_means_immediate_singleton_batches(self):
        # Nothing waits for a batch to fill: a lone burst runs at once.
        sizes = []

        def handler(queries, ks, contexts):
            sizes.append(len(queries))
            return identity_handler(queries, ks, contexts)

        frontend = _frontend(handler, max_batch_size=8)
        try:
            assert _submit(frontend, 5).result(5.0) == [10]
            assert sizes == [1]
        finally:
            frontend.stop()


class TestOrderingAndResults:
    def test_results_match_submission_order_within_batch(self):
        gate = _Gate(lambda queries, ks, contexts: [q + 100 for q in queries])
        frontend = _frontend(gate, max_batch_size=8)
        try:
            blocker = frontend.submit([-1, -2], [None, None])
            assert gate.entered.wait(5.0)
            futures = [
                frontend.submit([i, i + 10], [None, None])
                for i in range(4)
            ]
            gate.release.set()
            assert blocker.result(5.0) == [99, 98]
            assert [f.result(5.0) for f in futures] == [
                [100 + i, 110 + i] for i in range(4)
            ]
            assert gate.sizes == [2, 8]
        finally:
            frontend.stop()

    def test_concurrent_submitters_all_get_their_own_result(self):
        frontend = _frontend(
            lambda queries, ks, contexts: [q * q for q in queries],
            max_batch_size=4,
        )
        results = {}
        lock = threading.Lock()

        def submit(value):
            (result,) = _submit(frontend, value).result(10.0)
            with lock:
                results[value] = result

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave submitters aggressively
        try:
            threads = [
                threading.Thread(target=submit, args=(value,))
                for value in range(32)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert results == {value: value * value for value in range(32)}
            assert frontend.counters["jobs_failed"] == 0
        finally:
            sys.setswitchinterval(interval)
            frontend.stop()


class TestErrors:
    def test_handler_exception_rejects_the_batch_only(self):
        def failing(queries, ks, contexts):
            if "boom" in queries:
                raise RuntimeError("model exploded")
            return list(queries)

        gate = _Gate(failing)
        frontend = _frontend(gate, max_batch_size=2)
        try:
            blocker = _submit(frontend, "a")
            assert gate.entered.wait(5.0)
            poisoned = [_submit(frontend, "boom"), _submit(frontend, "b")]
            healthy = [_submit(frontend, "c"), _submit(frontend, "d")]
            gate.release.set()
            assert blocker.result(5.0) == ["a"]
            # "b" was fused with the failing query and shares its fate;
            # the next fused call is untouched.
            for future in poisoned:
                with pytest.raises(RuntimeError, match="model exploded"):
                    future.result(5.0)
            assert [f.result(5.0) for f in healthy] == [["c"], ["d"]]
            assert gate.sizes == [1, 2, 2]
            assert frontend.counters["jobs_failed"] == 1
            assert frontend.counters["jobs_ok"] == 2
        finally:
            frontend.stop()

    def test_wrong_result_count_is_an_error(self):
        gate = _Gate(lambda queries, ks, contexts: [0])
        frontend = _frontend(gate, max_batch_size=4)
        try:
            blocker = _submit(frontend, 0)
            assert gate.entered.wait(5.0)
            futures = [_submit(frontend, i) for i in range(3)]
            gate.release.set()
            assert blocker.result(5.0) == [0]
            for future in futures:
                with pytest.raises(RuntimeError, match="results"):
                    future.result(5.0)
        finally:
            frontend.stop()

    def test_result_timeout(self):
        gate = _Gate(lambda queries, ks, contexts: list(queries))
        frontend = _frontend(gate, max_batch_size=1)
        try:
            future = _submit(frontend, 1)
            with pytest.raises(TimeoutError):
                future.result(0.05)
            gate.release.set()
            assert future.result(5.0) == [1]  # late result still lands
        finally:
            frontend.stop()


class TestLifecycle:
    def test_close_drains_queued_items(self):
        gate = _Gate(lambda queries, ks, contexts: list(queries))
        frontend = _frontend(gate, max_batch_size=2)
        futures = [_submit(frontend, i) for i in range(6)]
        assert gate.entered.wait(5.0)
        gate.release.set()
        frontend.stop()
        assert [f.result(1.0) for f in futures] == [[i] for i in range(6)]

    def test_submit_after_close_raises(self):
        frontend = _frontend(identity_handler)
        frontend.stop()
        assert not frontend.ready
        with pytest.raises(ShedError) as info:
            _submit(frontend, 1)
        assert info.value.reason == "shutdown"

    def test_close_is_idempotent(self):
        frontend = _frontend(identity_handler)
        frontend.stop()
        frontend.stop()

    def test_stop_racing_submit_never_strands_a_burst(self, monkeypatch):
        # stop() completes between submit's stopped-check and its offer:
        # the burst lands in a queue no dispatcher will ever drain.  It
        # must be refused, not left to wait out the caller's timeout.
        frontend = _frontend(identity_handler)
        original = AdmissionQueue.offer

        def offer_after_stop(queue, job):
            frontend.stop()
            return original(queue, job)

        monkeypatch.setattr(AdmissionQueue, "offer", offer_after_stop)
        with pytest.raises(ShedError) as info:
            _submit(frontend, 1).result(2.0)
        assert info.value.reason == "shutdown"
        assert len(frontend.queue) == 0
