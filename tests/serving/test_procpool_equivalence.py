"""Cross-process equivalence: forked workers == the in-process linker.

The multi-process tier's correctness claim is that *where* a request
runs is unobservable: N forked workers over one mmap'd slab, with
cross-request Phase-II fusion, return the same rankings and the same
log-probs (≤1e-9) as one in-process reference linker — at any worker
count, under concurrency, degraded, and cold- or warm-cached.
"""

import math
import multiprocessing
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import LinkerConfig, ServingConfig
from repro.core.linker import NeuralConceptLinker
from repro.serving.frontend import build_frontend
from repro.serving.service import ProcPoolLinkingService
from repro.utils.faults import FaultSpec, fault_injection

from tests.core import phase2_oracle as oracle
from tests.serving.conftest import SERVING_QUERIES

TOLERANCE = 1e-9


def _assert_results_equivalent(actual, expected):
    assert [c.cid for c in actual.ranked] == [c.cid for c in expected.ranked]
    assert actual.degraded == expected.degraded
    for left, right in zip(actual.ranked, expected.ranked):
        assert left.keyword_score == right.keyword_score
        if math.isinf(right.log_prob):
            assert left.log_prob == right.log_prob
        else:
            assert abs(left.log_prob - right.log_prob) <= TOLERANCE


@pytest.fixture
def reference(make_linker, compiled_artifact):
    """The in-process reference: same artifact, no mmap.  Equivalence
    cases score it per candidate (``tests/core/phase2_oracle.py``)."""
    return make_linker(artifact_dir=str(compiled_artifact))


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_burst_matches_reference(
        self, workers, make_procpool_service, reference
    ):
        # One burst of 8 queries arrives at a worker as a single fused
        # link_batch — the cross-request-fusion path runs by construction.
        expected = [
            oracle.link(reference, query) for query in SERVING_QUERIES
        ]
        service = make_procpool_service(workers=workers).start(wait=True)
        actual = service.link_many(SERVING_QUERIES)
        assert len(actual) == len(expected)
        for left, right in zip(actual, expected):
            _assert_results_equivalent(left, right)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_requests_match_reference(
        self, workers, make_procpool_service, reference
    ):
        service = make_procpool_service(workers=workers).start(wait=True)
        for query in SERVING_QUERIES:
            _assert_results_equivalent(
                service.link(query), oracle.link(reference, query)
            )

    def test_concurrent_clients_match_reference(
        self, make_procpool_service, reference
    ):
        # 8 threads racing over 2 workers: request interleaving, worker
        # assignment, and dispatcher fusion are all nondeterministic —
        # the rankings must not be.
        expected = {
            query: oracle.link(reference, query)
            for query in SERVING_QUERIES
        }
        service = make_procpool_service(workers=2).start(wait=True)
        failures = []

        def client(index: int) -> None:
            for round_trip in range(4):
                query = SERVING_QUERIES[
                    (index + round_trip) % len(SERVING_QUERIES)
                ]
                try:
                    result = service.link(query)
                    _assert_results_equivalent(result, expected[query])
                except Exception as error:  # noqa: BLE001 - collected
                    failures.append((query, error))

        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


class TestForcedCrossRequestFusion:
    def test_bursts_queued_before_ready_fuse_into_one_job(
        self, make_worker_linker, reference
    ):
        # The lone worker cannot finish building its linker until every
        # burst is queued (it waits on a fork-inherited event); the first
        # dispatch then packs all four 2-query bursts into ONE worker job
        # (8 = max_batch_size), so these results can only have come
        # through the fused path.
        linker = make_worker_linker()
        queued = multiprocessing.get_context("fork").Event()

        def build_linker():
            queued.wait(30.0)
            return linker

        frontend = build_frontend(
            build_linker, workers=1, max_batch_size=8, warm=False
        )
        try:
            pairs = [
                [SERVING_QUERIES[i], SERVING_QUERIES[i + 1]]
                for i in range(0, 8, 2)
            ]
            futures = [frontend.submit(pair, [None, None]) for pair in pairs]
            queued.set()
            results = [future.result(30.0) for future in futures]
            stats = frontend.stats()
            assert stats["jobs_ok"] == 1, stats
            assert stats["workers"][0]["queries"] == 8, stats
            for pair, got in zip(pairs, results):
                assert len(got) == 2
                for query, result in zip(pair, got):
                    _assert_results_equivalent(
                        result, oracle.link(reference, query)
                    )
        finally:
            frontend.stop()


class TestDegradedModeEquivalence:
    def test_phase2_failure_degrades_identically(
        self, make_procpool_service, reference
    ):
        # The fault plan is installed before the fork, so every worker
        # inherits it: Phase II fails everywhere, both tiers fall back
        # to Phase-I keyword ranking, and the fallbacks must agree.
        with fault_injection({"linker.phase2": FaultSpec(times=-1)}):
            service = make_procpool_service(
                workers=2, warm_on_start=False
            ).start(wait=True)
            actual = service.link_many(SERVING_QUERIES)
            expected = [reference.link(query) for query in SERVING_QUERIES]
        for left, right in zip(actual, expected):
            assert left.degraded and right.degraded
            assert left.degraded_reason.startswith("error:")
            _assert_results_equivalent(left, right)


class TestCacheWarmDivergence:
    def test_cold_and_warm_workers_agree(
        self, make_procpool_service, reference
    ):
        # Encoding caches are a latency optimisation, not a semantic
        # one: a cold worker (lazy fills) and a warmed worker return
        # the same rankings as the warmed in-process reference.
        reference.warm_cache()
        expected = [
            oracle.link(reference, query) for query in SERVING_QUERIES
        ]
        cold = make_procpool_service(workers=1, warm_on_start=False)
        warm = make_procpool_service(workers=1, warm_on_start=True)
        cold.start(wait=True)
        warm.start(wait=True)
        for service in (cold, warm):
            for result, want in zip(
                service.link_many(SERVING_QUERIES), expected
            ):
                _assert_results_equivalent(result, want)


@pytest.fixture(scope="module")
def equivalence_pair(trained_pipeline, compiled_artifact):
    """(service, reference) shared across the property sweep's examples
    — forking a pool per hypothesis example would swamp the suite."""
    ontology, kb, model = trained_pipeline
    worker_linker = NeuralConceptLinker(
        model,
        ontology,
        LinkerConfig(
            k=5,
            artifact_dir=str(compiled_artifact),
            mmap_artifact=True,
        ),
        kb=kb,
    )
    reference = NeuralConceptLinker(
        model,
        ontology,
        LinkerConfig(k=5, artifact_dir=str(compiled_artifact)),
        kb=kb,
    )
    service = ProcPoolLinkingService(
        lambda: worker_linker,
        ontology,
        ServingConfig(workers=2, warm_on_start=False),
    )
    service.start(wait=True)
    yield service, reference
    service.stop()


@pytest.mark.property
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=len(SERVING_QUERIES) - 1),
        min_size=1,
        max_size=6,
    ),
    k=st.integers(min_value=1, max_value=8),
)
def test_property_any_burst_any_k_matches_reference(
    equivalence_pair, indices, k
):
    """Arbitrary bursts (repeats included) at arbitrary k: the worker
    pool and the in-process reference always agree."""
    service, reference = equivalence_pair
    queries = [SERVING_QUERIES[index] for index in indices]
    actual = service.link_many(queries, k=k)
    for query, result in zip(queries, actual):
        _assert_results_equivalent(
            result, oracle.link(reference, query, k=k)
        )
