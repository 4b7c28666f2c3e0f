"""Registry behaviour: lazy load, LRU eviction, quotas, resolution."""

import pytest

from repro.tenancy import (
    QuotaExceededError,
    QuotaWindow,
    UnknownTenantError,
)

from tests.tenancy.conftest import TENANT_QUERIES


class TestResolution:
    def test_none_resolves_to_default(self, make_registry):
        registry = make_registry(default="sct")
        assert registry.resolve(None).name == "sct"
        assert registry.resolve("").name == "sct"
        assert registry.resolve("icd").name == "icd"

    def test_unknown_tenant_raises_with_roster(self, make_registry):
        registry = make_registry()
        with pytest.raises(UnknownTenantError, match="icd"):
            registry.resolve("nope")

    def test_no_default_requires_a_name(self, make_registry):
        registry = make_registry(default="")
        with pytest.raises(UnknownTenantError, match="no default"):
            registry.resolve(None)


class TestLazyLoading:
    def test_nothing_loads_until_first_touch(self, make_registry):
        registry = make_registry()
        assert registry.loaded_names() == []
        runtime = registry.resolve("icd")
        assert not runtime.loaded  # resolve alone must stay free
        service = registry.service_for(runtime)
        assert runtime.loaded
        assert registry.loaded_names() == ["icd"]
        assert registry.service_for(runtime) is service  # cached

    def test_each_tenant_gets_its_own_service(self, make_registry):
        registry = make_registry()
        icd = registry.service_for(registry.resolve("icd"))
        sct = registry.service_for(registry.resolve("sct"))
        assert icd is not sct
        assert icd.linker is not sct.linker
        assert icd.metrics is not sct.metrics
        # But traces share one ring, tagged per tenant.
        assert icd.tracer is sct.tracer

    def test_tenant_config_scopes_the_linker(self, make_registry):
        registry = make_registry(
            tenant_kwargs={"icd": {"k": 2}}
        )
        service = registry.service_for(registry.resolve("icd"))
        assert service.linker.config.k == 2


class TestEviction:
    def test_max_loaded_evicts_least_recently_used(self, make_registry):
        registry = make_registry(max_loaded=1)
        registry.service_for(registry.resolve("icd"))
        assert registry.loaded_names() == ["icd"]
        registry.service_for(registry.resolve("sct"))
        assert registry.loaded_names() == ["sct"]
        icd = registry.resolve("icd")
        assert not icd.loaded
        assert icd.service is None

    def test_evicted_tenant_reloads_and_serves(self, make_registry):
        registry = make_registry(max_loaded=1)
        first = registry.service_for(registry.resolve("icd"))
        first.link_many(TENANT_QUERIES["icd"][:1])
        registry.service_for(registry.resolve("sct"))  # evicts icd
        second = registry.service_for(registry.resolve("icd"))  # reload
        assert second is not first
        results = second.link_many(TENANT_QUERIES["icd"][:1])
        assert results[0].ranked

    def test_metrics_and_quota_survive_eviction(self, make_registry):
        registry = make_registry(
            max_loaded=1,
            tenant_kwargs={"icd": {"quota_per_minute": 100}},
        )
        icd = registry.resolve("icd")
        registry.service_for(icd).link_many(TENANT_QUERIES["icd"][:2])
        icd.quota.admit()
        requests_before = icd.metrics.counter("requests_total").value
        assert requests_before > 0
        registry.service_for(registry.resolve("sct"))  # evicts icd
        assert icd.metrics.counter("requests_total").value == requests_before
        assert icd.quota.snapshot()["used"] == 1  # window intact
        assert icd.metrics.counter("tenant_evictions").value == 1
        registry.service_for(icd)
        assert icd.metrics.counter("tenant_loads").value == 2

    def test_touch_refreshes_lru_order(self, make_registry):
        registry = make_registry(max_loaded=2)
        registry.service_for(registry.resolve("icd"))
        registry.service_for(registry.resolve("sct"))
        registry.service_for(registry.resolve("icd"))  # icd now MRU
        assert registry.loaded_names() == ["sct", "icd"]

    def test_stop_unloads_everything(self, make_registry):
        registry = make_registry()
        registry.service_for(registry.resolve("icd"))
        registry.stop()
        assert registry.loaded_names() == []
        with pytest.raises(RuntimeError, match="stopped"):
            registry.service_for(registry.resolve("icd"))


class TestQuota:
    def test_window_slides_instead_of_resetting(self):
        now = [0.0]
        window = QuotaWindow(2, window_s=60.0, clock=lambda: now[0])
        window.admit()
        now[0] = 30.0
        window.admit()
        with pytest.raises(QuotaExceededError) as info:
            window.admit()
        assert info.value.retry_after_s == pytest.approx(30.0)
        now[0] = 61.0  # first admission expired, second still live
        window.admit()
        with pytest.raises(QuotaExceededError):
            window.admit()

    def test_zero_limit_disables_the_quota(self):
        window = QuotaWindow(0)
        for _ in range(100):
            window.admit()
        assert window.snapshot()["used"] == 0

    def test_registry_wires_quota_from_config(self, make_registry):
        now = [0.0]
        registry = make_registry(
            tenant_kwargs={"icd": {"quota_per_minute": 1}},
            clock=lambda: now[0],
        )
        icd = registry.resolve("icd")
        icd.quota.admit()
        with pytest.raises(QuotaExceededError):
            icd.quota.admit()
        # The other tenant's window is independent.
        registry.resolve("sct").quota.admit()


class TestSnapshot:
    def test_snapshot_reports_all_declared_tenants(self, make_registry):
        registry = make_registry(max_loaded=1, memory_budget_mb=64.0)
        registry.service_for(registry.resolve("sct"))
        snapshot = registry.snapshot()
        assert snapshot["default"] == "icd"
        assert snapshot["max_loaded"] == 1
        assert snapshot["loaded"] == ["sct"]
        assert set(snapshot["tenants"]) == {"icd", "sct"}
        assert snapshot["tenants"]["icd"]["loaded"] is False
        assert snapshot["tenants"]["sct"]["loaded"] is True
        assert "slo" in snapshot["tenants"]["sct"]
        assert "quota" in snapshot["tenants"]["icd"]
