"""Tenant isolation: partitioned metrics/caches under concurrent mixed
load, eviction round-trips, and numerical equivalence with a dedicated
single-tenant engine."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import LinkerConfig, ServingConfig
from repro.core.linker import NeuralConceptLinker
from repro.serving.service import LinkingService, ServiceNotReadyError
from repro.tenancy import QuotaExceededError, UnknownTenantError

from tests.tenancy.conftest import TENANT_QUERIES


class TestConcurrentIsolation:
    CALLERS = 16
    REQUESTS_PER_CALLER = 6

    def test_mixed_tenant_load_partitions_metrics_and_caches(
        self, make_service
    ):
        service = make_service()
        barrier = threading.Barrier(self.CALLERS)
        failures = []

        def caller(index):
            tenant = ("icd", "sct")[index % 2]
            queries = TENANT_QUERIES[tenant]
            barrier.wait(timeout=30.0)
            for step in range(self.REQUESTS_PER_CALLER):
                query = queries[step % len(queries)]
                try:
                    result = service.link(query, tenant=tenant)
                except Exception as error:  # noqa: BLE001 - collected
                    failures.append((tenant, query, error))
                    return
                if not result.ranked:
                    failures.append((tenant, query, "no candidates"))

        with ThreadPoolExecutor(max_workers=self.CALLERS) as pool:
            list(pool.map(caller, range(self.CALLERS)))
        assert not failures, failures

        expected = (self.CALLERS // 2) * self.REQUESTS_PER_CALLER
        icd = service.registry.resolve("icd")
        sct = service.registry.resolve("sct")
        # Exact per-tenant request counts: no request leaked across.
        assert icd.metrics.counter("requests_total").value == expected
        assert sct.metrics.counter("requests_total").value == expected
        assert (
            service.metrics.counter("routed_requests").value == 2 * expected
        )

        # Engine partitions are disjoint: each tenant's engine holds
        # only its own ontology's concepts.
        icd_linker = icd.service.linker
        sct_linker = sct.service.linker
        assert icd_linker.engine is not sct_linker.engine
        icd_cids = set(icd_linker.engine.artifact.cids)
        sct_cids = set(sct_linker.engine.artifact.cids)
        assert icd_cids and sct_cids
        assert not icd_cids & sct_cids
        assert all(cid in icd_linker.ontology for cid in icd_cids)
        assert all(cid in sct_linker.ontology for cid in sct_cids)

    def test_quota_hits_only_the_throttled_tenant(self, make_service):
        service = make_service(
            tenant_kwargs={"sct": {"quota_per_minute": 2}}
        )
        for _ in range(2):
            service.link(TENANT_QUERIES["sct"][0], tenant="sct")
        with pytest.raises(QuotaExceededError) as info:
            service.link(TENANT_QUERIES["sct"][0], tenant="sct")
        assert info.value.retry_after_s > 0
        # icd is untouched by sct's quota.
        result = service.link(TENANT_QUERIES["icd"][0], tenant="icd")
        assert result.ranked
        sct = service.registry.resolve("sct")
        assert sct.metrics.counter("quota_rejected").value == 1
        assert service.metrics.counter("quota_rejected").value == 1

    def test_unknown_tenant_is_counted_and_raised(self, make_service):
        service = make_service()
        with pytest.raises(UnknownTenantError):
            service.link("ckd stage 5", tenant="ghost")
        assert service.metrics.counter("unknown_tenant").value == 1

    def test_not_started_service_rejects(self, make_registry):
        from repro.tenancy import MultiTenantLinkingService

        service = MultiTenantLinkingService(make_registry())
        with pytest.raises(ServiceNotReadyError):
            service.link("ckd stage 5")


class TestEvictionRoundTrip:
    def test_evict_then_lazy_reload_preserves_results(self, make_service):
        service = make_service(max_loaded=1)
        before = [
            (r.ranked[0].cid, r.ranked[0].log_prob)
            for r in service.link_many(TENANT_QUERIES["icd"], tenant="icd")
        ]
        service.link(TENANT_QUERIES["sct"][0], tenant="sct")  # evicts icd
        assert service.registry.loaded_names() == ["sct"]
        after = [
            (r.ranked[0].cid, r.ranked[0].log_prob)
            for r in service.link_many(TENANT_QUERIES["icd"], tenant="icd")
        ]
        assert after == before


class TestEquivalence:
    """Routing through the registry must not change the numbers."""

    TOLERANCE = 1e-9

    def test_multi_tenant_matches_dedicated_engine(
        self, tenant_world, make_service
    ):
        service = make_service()
        for tenant, queries in TENANT_QUERIES.items():
            ontology, kb, model = tenant_world[tenant]
            dedicated = LinkingService(
                NeuralConceptLinker(
                    model, ontology, LinkerConfig(k=5), kb=kb
                ),
                ServingConfig(),
            ).start(wait=True)
            try:
                routed = service.link_many(queries, tenant=tenant)
                direct = dedicated.link_many(queries)
            finally:
                dedicated.stop()
            for got, want in zip(routed, direct):
                assert [c.cid for c in got.ranked] == [
                    c.cid for c in want.ranked
                ]
                for mine, theirs in zip(got.ranked, want.ranked):
                    assert mine.log_prob == pytest.approx(
                        theirs.log_prob, abs=self.TOLERANCE
                    )


class TestServiceMapping:
    def test_map_concept_by_query_links_then_projects(self, make_service):
        service = make_service()
        report = service.map_concept(
            "sct", "icd", query="end stage renal disease"
        )
        assert report["source"] == "sct"
        assert report["target"] == "icd"
        assert report["linked"]["cid"] == "46177005"
        assert report["mappings"][0]["cid"] == "N18.5"
        assert report["anchors"] > 0

    def test_map_concept_by_cid_skips_linking(self, make_service):
        service = make_service()
        report = service.map_concept("sct", "icd", cid="9209005")
        assert report["linked"] == {
            "cid": "9209005",
            "description": "acute abdominal pain (disorder)",
            "degraded": False,
        }
        assert report["mappings"][0]["cid"] == "R10.0"

    def test_map_concept_validates_inputs(self, make_service):
        from repro.utils.errors import DataError

        service = make_service()
        with pytest.raises(DataError, match="exactly one"):
            service.map_concept("sct", "icd")
        with pytest.raises(DataError, match="exactly one"):
            service.map_concept("sct", "icd", query="x", cid="y")
        with pytest.raises(DataError, match="differ"):
            service.map_concept("icd", "icd", cid="N18.5")
        with pytest.raises(DataError, match="unknown concept"):
            service.map_concept("sct", "icd", cid="000000")

    def test_map_pays_the_source_tenant_quota(self, make_service):
        service = make_service(
            tenant_kwargs={"sct": {"quota_per_minute": 1}}
        )
        service.map_concept("sct", "icd", query="hemorrhagic anemia")
        with pytest.raises(QuotaExceededError):
            service.map_concept("sct", "icd", query="hemorrhagic anemia")
        # cid-only projection is metadata work, not a linking request.
        report = service.map_concept("sct", "icd", cid="46177005")
        assert report["mappings"]
