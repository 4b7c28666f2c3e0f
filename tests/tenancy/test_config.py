"""Validation and round-trip tests for the ``tenants`` config section."""

import pytest

from repro.core.config import (
    LinkerConfig,
    RuntimeConfig,
    TenancyConfig,
    TenantConfig,
)
from repro.utils.errors import ConfigurationError


class TestTenantConfig:
    def test_defaults_are_valid(self):
        tenant = TenantConfig()
        assert tenant.retrieval_mode == "exact"

    def test_rejects_unknown_retrieval_mode(self):
        with pytest.raises(ConfigurationError, match="retrieval_mode"):
            TenantConfig(retrieval_mode="psychic")

    def test_non_exact_mode_requires_artifact(self):
        with pytest.raises(ConfigurationError, match="artifact_dir"):
            TenantConfig(retrieval_mode="hybrid")
        TenantConfig(retrieval_mode="hybrid", artifact_dir="/tmp/a")

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_rejects_removed_retrieval_modes_by_name(self, mode):
        # API 1.10 deleted the sparse and dense modes.
        with pytest.raises(ConfigurationError) as info:
            RuntimeConfig.from_dict(
                {"tenants": {"definitions": {"a": {
                    "retrieval_mode": mode, "artifact_dir": "/tmp/a",
                }}}}
            )
        assert (
            f"tenant retrieval_mode must be one of ('exact', 'hybrid'), "
            f"got {mode!r}"
        ) in str(info.value)

    @pytest.mark.parametrize(
        "field", ["k", "quota_per_minute"]
    )
    def test_rejects_negative_budgets(self, field):
        with pytest.raises(ConfigurationError, match=field):
            TenantConfig(**{field: -1})

    def test_to_linker_config_scopes_overrides(self):
        base = LinkerConfig(k=7)
        tenant = TenantConfig(
            artifact_dir="/tmp/a", retrieval_mode="hybrid", k=3,
        )
        scoped = tenant.to_linker_config(base)
        assert scoped.artifact_dir == "/tmp/a"
        assert scoped.retrieval_mode == "hybrid"
        assert scoped.k == 3
        # No per-tenant k -> the base k governs.
        assert TenantConfig().to_linker_config(base).k == 7


class TestTenancyConfig:
    def test_disabled_by_default(self):
        assert not TenancyConfig().enabled
        assert not RuntimeConfig().tenants.enabled

    def test_coerces_mapping_definitions(self):
        tenancy = TenancyConfig(
            definitions={"a": {"quota_per_minute": 8}}, default="a"
        )
        assert isinstance(tenancy.definitions["a"], TenantConfig)
        assert tenancy.definitions["a"].quota_per_minute == 8
        assert tenancy.enabled

    def test_rejects_unknown_tenant_keys(self):
        with pytest.raises(ConfigurationError, match="wat"):
            TenancyConfig(definitions={"a": {"wat": 1}}, default="a")

    def test_rejects_removed_cache_budget_by_name(self):
        # API 1.9 removed the per-tenant encoding caches.
        with pytest.raises(ConfigurationError, match="cache_budget"):
            RuntimeConfig.from_dict(
                {"tenants": {"definitions": {"a": {"cache_budget": 8}}}}
            )

    @pytest.mark.parametrize("name", ["", "a b", "a/b", "a\nb"])
    def test_rejects_bad_tenant_names(self, name):
        with pytest.raises(ConfigurationError):
            TenancyConfig(definitions={name: {}})

    def test_rejects_undeclared_default(self):
        with pytest.raises(ConfigurationError, match="default"):
            TenancyConfig(definitions={"a": {}}, default="b")

    def test_runtime_config_round_trips(self):
        runtime = RuntimeConfig.from_dict(
            {
                "tenants": {
                    "definitions": {
                        "icd": {"k": 16, "quota_per_minute": 5},
                        "sct": {"retrieval_mode": "hybrid",
                                "artifact_dir": "/tmp/sct"},
                    },
                    "default": "icd",
                    "max_loaded": 1,
                    "memory_budget_mb": 64.0,
                }
            }
        )
        assert runtime.tenants.enabled
        assert runtime.tenants.definitions["icd"].quota_per_minute == 5
        again = RuntimeConfig.from_dict(runtime.to_dict())
        assert again == runtime
