"""``workers=0`` on the one dispatcher: shedding and engine swaps.

The in-process tier shares the worker tier's admission queue, so its
``shed_policy`` and ``deadline_ms`` shed with the same 503 envelope;
and it runs every fused ``link_batch`` under the service's model lock,
so a blue/green swap inside ``exclusive()`` lands between decodes.
"""

import copy
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import ServingConfig
from repro.serving.server import create_server, run_server
from repro.serving.service import LinkingService


def _post(base, query, request_id, timeout=30.0):
    request = urllib.request.Request(
        base + "/v1/link",
        data=json.dumps({"query": query}).encode("utf-8"),
        headers={"Content-Type": "application/json", "X-Request-ID": request_id},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class _Gate:
    """Holds the linker's first ``link_batch`` until released."""

    def __init__(self, linker):
        self.entered = threading.Event()
        self.release = threading.Event()
        original = linker.link_batch

        def gated(queries, **kwargs):
            if not self.entered.is_set():
                self.entered.set()
                assert self.release.wait(30.0), "test never released the gate"
            return original(queries, **kwargs)

        linker.link_batch = gated  # type: ignore[method-assign]


@pytest.fixture
def gated_server(make_linker):
    """``build(**serving_kwargs) -> (base, service, gate)``; torn down
    (gate released, server and service stopped) at test exit."""
    running = []

    def build(**serving_kwargs):
        linker = make_linker()
        gate = _Gate(linker)
        service = LinkingService(
            linker, ServingConfig(port=0, warm_on_start=False, **serving_kwargs)
        ).start(wait=True)
        server = create_server(service, port=0)
        thread = threading.Thread(
            target=run_server,
            args=(server,),
            kwargs={"install_signal_handlers": False},
            daemon=True,
        )
        thread.start()
        running.append((gate, server, thread, service))
        return f"http://127.0.0.1:{server.port}", service, gate

    yield build
    for gate, server, thread, service in running:
        gate.release.set()
        server.shutdown()
        thread.join(5.0)
        service.stop()


def _in_background(responses, base, name, query):
    def post():
        responses[name] = _post(base, query, name)

    thread = threading.Thread(target=post, daemon=True)
    thread.start()
    return thread


def _wait_for_depth(service, depth):
    deadline = time.monotonic() + 10.0
    while len(service._frontend.queue) < depth and time.monotonic() < deadline:
        time.sleep(0.005)
    assert len(service._frontend.queue) == depth


def _assert_shed_envelope(response, request_id):
    status, payload = response
    assert status == 503
    assert payload["error"]["code"] == "shed"
    assert payload["error"]["message"]
    assert payload["error"]["request_id"] == request_id


class TestShedding:
    def test_drop_oldest_sheds_the_queue_head(self, gated_server):
        base, service, gate = gated_server(
            admission_queue=1, shed_policy="drop_oldest"
        )
        responses = {}
        first = _in_background(responses, base, "first", "ckd stage 5")
        assert gate.entered.wait(10.0)
        second = _in_background(responses, base, "second", "anemia blood loss")
        _wait_for_depth(service, 1)
        # The third arrival displaces the queued second one at once,
        # while the dispatcher is still busy with the first.
        third = _in_background(responses, base, "third", "scorbutic anemia")
        second.join(10.0)
        assert not gate.release.is_set()
        _assert_shed_envelope(responses["second"], "second")
        gate.release.set()
        first.join(10.0)
        third.join(10.0)
        assert responses["first"][0] == 200
        assert responses["third"][0] == 200
        counters = service.snapshot()["counters"]
        assert counters["frontend.shed.drop_oldest"] == 1
        assert counters["requests_shed"] == 1

    def test_deadline_sheds_requests_that_waited_too_long(self, gated_server):
        base, service, gate = gated_server(deadline_ms=50.0)
        responses = {}
        first = _in_background(responses, base, "first", "ckd stage 5")
        assert gate.entered.wait(10.0)
        late = _in_background(responses, base, "late", "anemia blood loss")
        _wait_for_depth(service, 1)
        time.sleep(0.2)  # well past the 50 ms queueing deadline
        gate.release.set()
        first.join(10.0)
        late.join(10.0)
        assert responses["first"][0] == 200
        _assert_shed_envelope(responses["late"], "late")
        assert "deadline" in responses["late"][1]["error"]["message"]
        counters = service.snapshot()["counters"]
        assert counters["frontend.shed.deadline"] == 1
        assert counters["requests_shed"] == 1


class TestSwapInsideExclusive:
    def test_swap_never_splits_a_fused_decode(self, make_linker):
        linker = make_linker()
        old_model = linker.model
        new_model = copy.deepcopy(old_model)
        #: (model when the decode began, model when it ended, queries)
        decodes = []
        entered = threading.Event()
        release = threading.Event()
        original = linker._phase_two

        def watched(prepared, contexts):
            before = linker.model
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0), "test never released the decode"
            results = original(prepared, contexts)
            decodes.append((before, linker.model, len(prepared)))
            return results

        linker._phase_two = watched  # type: ignore[method-assign]
        service = LinkingService(
            linker, ServingConfig(warm_on_start=False, max_batch_size=8)
        ).start(wait=True)
        swapped = threading.Event()

        def swap():
            with service.exclusive():
                linker.swap_engine(new_model, None)
            swapped.set()

        try:
            callers = [
                threading.Thread(target=service.link, args=(query,))
                for query in ("ckd stage 5", "anemia blood loss",
                              "scorbutic anemia", "acute abdomen pain")
            ]
            callers[0].start()
            assert entered.wait(10.0)
            for caller in callers[1:]:
                caller.start()
            _wait_for_depth(service, 3)
            swapper = threading.Thread(target=swap)
            swapper.start()
            # The flip waits for the in-flight decode to finish.
            assert not swapped.wait(0.2)
            release.set()
            for thread in (*callers, swapper):
                thread.join(10.0)
            assert swapped.is_set()
        finally:
            release.set()
            service.stop()
        assert linker.model is new_model
        # The three queued requests were fused into one decode, and every
        # decode ran start to finish on one model.
        assert [queries for _, _, queries in decodes] == [1, 3]
        assert decodes[0][0] is old_model
        for before, after, _ in decodes:
            assert before is after
