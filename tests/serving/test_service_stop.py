"""LinkingService.stop(): idempotent and safe from any state."""

import threading

import pytest

from repro.core.config import ServingConfig
from repro.serving.procpool import ProcessPool
from repro.serving.service import LinkingService


@pytest.fixture
def service(make_linker):
    return LinkingService(
        make_linker(), ServingConfig(warm_on_start=False)
    )


class TestStopIdempotency:
    def test_stop_before_start_is_safe(self, service):
        service.stop()
        service.stop()
        assert not service.healthy

    def test_start_after_stop_raises(self, service):
        service.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            service.start()

    def test_double_stop_after_start(self, service):
        service.start(wait=True)
        assert service.link("ckd stage 5").ranked
        service.stop()
        service.stop()
        assert not service.ready

    def test_concurrent_stops_race_safely(self, service):
        service.start(wait=True)
        barrier = threading.Barrier(4)
        errors = []

        def stopper():
            barrier.wait(timeout=5.0)
            try:
                service.stop()
            except Exception as error:  # noqa: BLE001 - the finding
                errors.append(error)

        threads = [threading.Thread(target=stopper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert not service.healthy

    def test_stop_joins_warm_thread(self, make_linker):
        service = LinkingService(
            make_linker(), ServingConfig(warm_on_start=True)
        )
        service.start(wait=True)
        service.stop()
        assert service._warm_thread is not None
        assert not service._warm_thread.is_alive()

    def test_stop_closes_attached_lifecycle(self, service):
        closed = []

        class FakeController:
            def close(self):
                closed.append(True)

            def observe_results(self, results):
                pass

        service.attach_lifecycle(FakeController())
        service.start(wait=True)
        service.stop()
        assert closed == [True]

    def test_attach_twice_raises(self, service):
        service.attach_lifecycle(object())
        with pytest.raises(RuntimeError, match="already attached"):
            service.attach_lifecycle(object())


class TestWorkerTierStop:
    def test_eight_concurrent_stops_tear_the_pool_down_once(
        self, make_procpool_service, monkeypatch
    ):
        teardowns = []
        original = ProcessPool.stop

        def counting_stop(pool, *args, **kwargs):
            teardowns.append(pool)
            return original(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPool, "stop", counting_stop)
        service = make_procpool_service(
            workers=1, warm_on_start=False
        ).start(wait=True)
        barrier = threading.Barrier(8)
        errors = []

        def stopper():
            barrier.wait(timeout=5.0)
            try:
                service.stop()
            except Exception as error:  # noqa: BLE001 - the finding
                errors.append(error)

        threads = [threading.Thread(target=stopper) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15.0)
        assert not errors
        assert len(teardowns) == 1
        assert not service.healthy
