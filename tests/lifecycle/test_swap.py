"""ArtifactSwapper: hot swap under traffic, gates, rollback, durability."""

import hashlib
import threading
from pathlib import Path

import pytest

from repro.lifecycle.swap import LifecycleError
from repro.utils.faults import FaultSpec, fault_injection

from tests.lifecycle.conftest import SERVING_QUERIES


def directory_digest(directory: Path) -> dict:
    """name → sha256 for every file (the byte-identity witness)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).iterdir())
        if path.is_file()
    }


def feed(service, queries=SERVING_QUERIES, repeat=1):
    results = []
    for _ in range(repeat):
        results.extend(service.link_many(list(queries)))
    return results


def stage_candidate(controller, candidate_factory, model):
    artifact_dir = candidate_factory(model)
    return controller.stage(model=model, artifact_dir=artifact_dir)


class TestHotSwap:
    def test_promote_flips_fingerprint_and_keeps_serving(
        self, stack, candidate_factory, retrained_model
    ):
        service, controller, _ = stack
        before = service.linker.model_fingerprint
        feed(service)
        stage_candidate(controller, candidate_factory, retrained_model)
        feed(service, repeat=2)
        report = controller.promote()
        assert report["promoted"], report
        after = service.linker.model_fingerprint
        assert after != before
        assert report["fingerprint"] == after
        assert report["previous_fingerprint"] == before
        # The service keeps answering on the new engine.
        results = feed(service)
        assert all(not r.degraded for r in results)
        assert controller.swapper.state == "idle"

    def test_promote_publishes_candidate_into_active_dir(
        self, stack, candidate_factory, retrained_model
    ):
        service, controller, active = stack
        before = directory_digest(active)
        feed(service)
        stage_candidate(controller, candidate_factory, retrained_model)
        feed(service)
        assert controller.promote()["promoted"]
        after = directory_digest(active)
        assert after != before
        # The published bytes verify end to end (manifest + indexes).
        from repro.engine.compile import load_artifact

        published = load_artifact(active, model=retrained_model)
        assert (
            published.fingerprint["params_sha256"]
            == service.linker.model_fingerprint
        )

    def test_mid_traffic_swap_drops_nothing(
        self, stack, candidate_factory, retrained_model
    ):
        """The closed-loop acceptance: hammering clients across the swap
        window observe zero failures and zero degraded results."""
        service, controller, _ = stack
        stop = threading.Event()
        failures = []
        degraded = []
        requests = [0]

        def hammer(offset):
            index = offset
            while not stop.is_set():
                query = SERVING_QUERIES[index % len(SERVING_QUERIES)]
                index += 1
                try:
                    result = service.link(query)
                except Exception as error:  # noqa: BLE001 - the finding
                    failures.append(error)
                    continue
                finally:
                    requests[0] += 1
                if result.degraded:
                    degraded.append(result)

        threads = [
            threading.Thread(target=hammer, args=(i * 3,), daemon=True)
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            stage_candidate(controller, candidate_factory, retrained_model)
            feed(service)
            report = controller.promote()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert report["promoted"], report
        assert requests[0] > 0
        assert failures == []
        assert degraded == []

    def test_stage_while_staged_is_rejected(
        self, stack, candidate_factory, retrained_model
    ):
        _, controller, _ = stack
        stage_candidate(controller, candidate_factory, retrained_model)
        with pytest.raises(LifecycleError, match="shadowing"):
            stage_candidate(controller, candidate_factory, retrained_model)
        controller.rollback("test-cleanup")

    def test_promote_without_candidate_is_rejected(self, stack):
        _, controller, _ = stack
        with pytest.raises(LifecycleError, match="no staged candidate"):
            controller.promote()


class TestCacheInvalidation:
    def test_stale_encoding_never_scores_under_new_fingerprint(
        self, stack, candidate_factory, retrained_model, lifecycle_base
    ):
        """Satellite guarantee: an encoding computed against the old
        weights must be unreachable after the swap — the linker serves
        only the promoted engine, and refuses to flip back to an engine
        compiled from other weights."""
        from repro.utils.errors import DataError

        ontology, kb, _, _, _ = lifecycle_base
        service, controller, _ = stack
        linker = service.linker
        feed(service)
        old_engine = linker.engine
        stage_candidate(controller, candidate_factory, retrained_model)
        feed(service)
        assert controller.promote()["promoted"]
        assert linker.engine is not old_engine
        assert linker.candidates is linker.engine.candidates
        linker.engine.artifact.check_model(retrained_model)
        with pytest.raises(DataError, match="fingerprint mismatch"):
            linker.swap_engine(retrained_model, old_engine)
        assert linker.model_fingerprint != old_engine.fingerprint
        # Fresh scores match a reference linker built directly over the
        # new model — nothing served came from the poisoned old cache.
        from repro.core.config import LinkerConfig
        from repro.core.linker import NeuralConceptLinker

        reference = NeuralConceptLinker(
            retrained_model,
            ontology,
            LinkerConfig(k=5),
            kb=kb,
        )
        for query in SERVING_QUERIES[:4]:
            served = service.link(query)
            expected = reference.link(query)
            assert [c.cid for c in served.ranked] == [
                c.cid for c in expected.ranked
            ]
            for got, want in zip(served.ranked, expected.ranked):
                assert got.log_prob == pytest.approx(want.log_prob, abs=1e-9)


class TestRollback:
    def test_gate_failure_rolls_back_automatically(
        self, stack, candidate_factory, degraded_model
    ):
        """The shadow gate demonstrably blocks a degraded candidate."""
        import dataclasses

        service, controller, _ = stack
        controller.swapper.config = dataclasses.replace(
            controller.swapper.config, min_agreement=0.9
        )
        before = service.linker.model_fingerprint
        stage_candidate(controller, candidate_factory, degraded_model)
        feed(service, repeat=2)
        report = controller.promote()
        assert not report["promoted"]
        assert report["reason"].startswith("gate:")
        assert service.linker.model_fingerprint == before
        stats = controller.swapper.stats()
        assert stats["state"] == "idle"
        assert stats["rollbacks"] == 1
        assert report["reason"] in stats["rollback_reasons"]
        assert stats["last_rollback_reason"] == report["reason"]
        # Rollback reason codes surface through the /v1/metrics payload.
        snapshot = service.snapshot()
        assert (
            snapshot["lifecycle"]["swap"]["rollback_reasons"][report["reason"]]
            == 1
        )
        assert (
            snapshot["counters"][f"lifecycle_rollback.{report['reason']}"] == 1
        )

    def test_too_few_shadow_samples_blocks(
        self, stack, candidate_factory, retrained_model
    ):
        _, controller, _ = stack
        stage_candidate(controller, candidate_factory, retrained_model)
        report = controller.promote()  # no traffic mirrored at all
        assert not report["promoted"]
        assert report["reason"] == "gate:samples"

    def test_force_promote_skips_gates(
        self, stack, candidate_factory, retrained_model
    ):
        service, controller, _ = stack
        before = service.linker.model_fingerprint
        stage_candidate(controller, candidate_factory, retrained_model)
        report = controller.promote(force=True)
        assert report["promoted"]
        assert service.linker.model_fingerprint != before

    def test_crash_mid_publish_rolls_back_byte_identical(
        self, stack, candidate_factory, retrained_model
    ):
        """Fault-injected promotion failure: crash inside the staged
        publish (second ``lifecycle.promote`` hit).  The pre-swap model
        must keep serving and the deployment directory must be
        byte-identical."""
        service, controller, active = stack
        before_fingerprint = service.linker.model_fingerprint
        before_bytes = directory_digest(active)
        stage_candidate(controller, candidate_factory, retrained_model)
        feed(service, repeat=2)
        with fault_injection(
            {"lifecycle.promote": FaultSpec(action="raise", after=1)}
        ) as plan:
            report = controller.promote()
            assert plan.fired("lifecycle.promote") == 1
        assert not report["promoted"]
        assert report["reason"] == "fault:InjectedFault"
        assert service.linker.model_fingerprint == before_fingerprint
        assert directory_digest(active) == before_bytes
        # No staging residue parked next to the deployment.
        leftovers = [
            p.name
            for p in active.parent.iterdir()
            if p.name.startswith(".staging") or p.name.endswith(".backup")
        ]
        assert leftovers == []
        # The service still answers on the old engine.
        results = feed(service)
        assert all(not r.degraded for r in results)
        stats = controller.swapper.stats()
        assert stats["rollback_reasons"]["fault:InjectedFault"] == 1

    def test_rollback_probe_fires_after_pointer_restored(
        self, stack, candidate_factory, degraded_model
    ):
        import dataclasses

        service, controller, _ = stack
        controller.swapper.config = dataclasses.replace(
            controller.swapper.config, min_agreement=0.9
        )
        stage_candidate(controller, candidate_factory, degraded_model)
        feed(service, repeat=2)
        with fault_injection(
            {"lifecycle.rollback": FaultSpec(action="delay", delay_s=0.0)}
        ) as plan:
            report = controller.promote()
        assert not report["promoted"]
        assert plan.fired("lifecycle.rollback") == 1

    def test_manual_rollback_restores_previous_generation(
        self, stack, candidate_factory, retrained_model
    ):
        service, controller, _ = stack
        before = service.linker.model_fingerprint
        feed(service)
        stage_candidate(controller, candidate_factory, retrained_model)
        feed(service, repeat=2)
        assert controller.promote()["promoted"]
        promoted = service.linker.model_fingerprint
        assert promoted != before
        report = controller.rollback("manual")
        assert report["restored"]
        assert service.linker.model_fingerprint == before
        results = feed(service)
        assert all(not r.degraded for r in results)

    def test_rollback_with_nothing_staged_raises(self, stack):
        _, controller, _ = stack
        with pytest.raises(LifecycleError, match="nothing to roll back"):
            controller.rollback("manual")
