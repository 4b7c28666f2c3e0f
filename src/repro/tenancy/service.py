"""A tenant-routing façade over per-tenant :class:`LinkingService`\\ s.

:class:`MultiTenantLinkingService` duck-types the single-tenant
:class:`~repro.serving.service.LinkingService` surface the HTTP server
speaks (``ready``/``healthy``/``link_many``/``snapshot``/``stop``/
``tracer``/``metrics``), adding the tenant dimension: every request
resolves to a tenant through the :class:`TenantRegistry` (lazy load,
LRU evict), pays that tenant's quota, and runs on that tenant's
service — so engines, metrics, SLO windows, and fused batches never mix
across tenants.

It also owns cross-ontology mapping: a :class:`ConceptMapper` per
(source, target) tenant pair, built lazily and cached, behind
:meth:`map_concept` (HTTP ``POST /v1/map``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ServingConfig
from repro.serving.metrics import MetricsRegistry
from repro.tenancy.errors import QuotaExceededError, UnknownTenantError
from repro.tenancy.mapper import ConceptMapper
from repro.tenancy.registry import TenantRegistry, TenantRuntime
from repro.utils.errors import DataError
from repro.utils.logging import get_logger

LOGGER = get_logger("tenancy.service")


class MultiTenantLinkingService:
    """Routes requests across the tenants of a :class:`TenantRegistry`.

    The façade itself is always *ready* once started: readiness of an
    individual tenant is established lazily on its first request (a
    cold tenant warms on demand; that is the point of lazy loading).
    ``metrics`` here is the **routing** registry — per-tenant request
    metrics live on each tenant's own registry and survive eviction.
    """

    #: Duck-typing marker the HTTP layer keys tenant features off.
    multi_tenant = True

    def __init__(
        self,
        registry: TenantRegistry,
        config: Optional[ServingConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else registry.serving
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = registry.tracer
        self._started_at: Optional[float] = None
        self._stopped = threading.Event()
        self._mappers: Dict[Tuple[str, str], ConceptMapper] = {}
        self._mapper_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self, wait: bool = False) -> "MultiTenantLinkingService":
        """Mark the façade serving; tenants load lazily per request."""
        if self._stopped.is_set():
            raise RuntimeError(
                "service was stopped; build a new MultiTenantLinkingService "
                "to restart"
            )
        if self._started_at is not None:
            raise RuntimeError("service already started")
        self._started_at = time.monotonic()
        return self

    def stop(self) -> None:
        """Drain and unload every tenant; idempotent."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.registry.stop()

    @property
    def healthy(self) -> bool:
        return not self._stopped.is_set()

    @property
    def ready(self) -> bool:
        return self._started_at is not None and not self._stopped.is_set()

    @property
    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- tenant resolution ---------------------------------------------------

    def resolve_name(self, tenant: Optional[str] = None) -> str:
        """The declared tenant name a request maps to (or raises)."""
        return self.registry.resolve(tenant).name

    def ontology_for(self, tenant: Optional[str] = None):
        """The resolved tenant's ontology (loads the tenant)."""
        return self.registry.ontology_for(self.registry.resolve(tenant))

    @property
    def ontology(self):
        """The default tenant's ontology (loads it on first access)."""
        return self.ontology_for(None)

    def _admit(self, runtime: TenantRuntime) -> None:
        try:
            runtime.quota.admit()
        except QuotaExceededError:
            runtime.metrics.counter("quota_rejected").inc()
            self.metrics.counter("quota_rejected").inc()
            raise

    # -- request path --------------------------------------------------------

    def link(
        self,
        query: str,
        k: Optional[int] = None,
        timeout: Optional[float] = None,
        tenant: Optional[str] = None,
    ):
        """Link one query on the resolved tenant's service."""
        return self.link_many([query], k=k, timeout=timeout, tenant=tenant)[0]

    def link_many(
        self,
        queries: Sequence[str],
        k: Optional[int] = None,
        timeout: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> List[Any]:
        """Route one burst to its tenant's service.

        Admission order: resolve (404 ``unknown_tenant``), quota (429
        ``quota_exceeded``) — *before* the lazy load, so an over-quota
        tenant cannot force a load/evict cycle — then the tenant
        service's own burst admission (503 ``shed``).
        """
        if not self.ready:
            self.metrics.counter("requests_rejected").inc()
            from repro.serving.service import ServiceNotReadyError

            raise ServiceNotReadyError("multi-tenant service is not ready")
        try:
            runtime = self.registry.resolve(tenant)
        except UnknownTenantError:
            self.metrics.counter("unknown_tenant").inc()
            raise
        self._admit(runtime)
        self.metrics.counter("routed_requests").inc()
        service = self.registry.service_for(runtime)
        return service.link_many(queries, k=k, timeout=timeout)

    # -- cross-ontology mapping ---------------------------------------------

    def _mapper_for(
        self, source: TenantRuntime, target: TenantRuntime
    ) -> ConceptMapper:
        key = (source.name, target.name)
        with self._mapper_lock:
            mapper = self._mappers.get(key)
            if mapper is not None:
                return mapper
        # Build outside the lock-held fast path; loading both tenants
        # can be slow and must not serialise unrelated mappings.
        source_ontology = self.registry.ontology_for(source)
        target_ontology = self.registry.ontology_for(target)
        source_kb = self.registry.kb_for(source)
        target_kb = self.registry.kb_for(target)
        built = ConceptMapper(
            source_ontology,
            target_ontology,
            source_kb=source_kb,
            target_kb=target_kb,
        )
        with self._mapper_lock:
            return self._mappers.setdefault(key, built)

    def map_concept(
        self,
        source: Optional[str],
        target: Optional[str],
        query: Optional[str] = None,
        cid: Optional[str] = None,
        k: Optional[int] = None,
        limit: int = 5,
    ) -> Dict[str, Any]:
        """Link (or take) a source concept and project it into ``target``.

        Exactly one of ``query`` (linked through the source tenant's
        service, paying its quota) or ``cid`` (an already-linked source
        concept) must be given.  Returns a JSON-ready report with the
        linked source concept and the ranked cross-ontology mappings.
        """
        if (query is None) == (cid is None):
            raise DataError("provide exactly one of 'query' or 'cid'")
        source_runtime = self.registry.resolve(source)
        target_runtime = self.registry.resolve(target)
        if source_runtime is target_runtime:
            raise DataError(
                "source and target tenants must differ "
                f"(both resolve to {source_runtime.name!r})"
            )
        self.metrics.counter("map_requests").inc()
        mapper = self._mapper_for(source_runtime, target_runtime)
        linked: Optional[Dict[str, Any]] = None
        if query is not None:
            self._admit(source_runtime)
            service = self.registry.service_for(source_runtime)
            result = service.link_many([query], k=k)[0]
            if not result.ranked:
                return {
                    "source": source_runtime.name,
                    "target": target_runtime.name,
                    "linked": None,
                    "mappings": [],
                    "anchors": mapper.stats()["anchors"],
                }
            top = result.ranked[0]
            cid = top.cid
            linked = {
                "cid": top.cid,
                "description": mapper.source.get(top.cid).description,
                "degraded": result.degraded,
            }
        else:
            assert cid is not None
            try:
                concept = mapper.source.get(cid)
            except KeyError:
                raise DataError(
                    f"unknown concept {cid!r} in tenant "
                    f"{source_runtime.name!r}"
                ) from None
            linked = {
                "cid": concept.cid,
                "description": concept.description,
                "degraded": False,
            }
        mappings = mapper.project(cid, limit=limit)
        return {
            "source": source_runtime.name,
            "target": target_runtime.name,
            "linked": linked,
            "mappings": [mapping.to_json() for mapping in mappings],
            "anchors": mapper.stats()["anchors"],
        }

    # -- lifecycle targeting -------------------------------------------------

    def attach_lifecycle(
        self, controller: object, tenant: Optional[str] = None
    ) -> None:
        """Attach a lifecycle controller to one tenant's service.

        Loads the tenant if needed.  Eviction closes the controller
        with the service, so pin hot-swappable tenants with
        ``max_loaded``/budget headroom.
        """
        runtime = self.registry.resolve(tenant)
        self.registry.service_for(runtime).attach_lifecycle(controller)

    def lifecycle_for(self, tenant: Optional[str] = None) -> Optional[object]:
        """The tenant's attached controller, or ``None`` (no load)."""
        runtime = self.registry.resolve(tenant)
        if runtime.service is None:
            return None
        return runtime.service.lifecycle

    @property
    def lifecycle(self) -> Optional[object]:
        """The default tenant's controller when one is loaded+attached."""
        try:
            return self.lifecycle_for(None)
        except UnknownTenantError:
            return None

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Routing-level report plus the per-tenant registry view."""
        report: Dict[str, Any] = {
            "ready": self.ready,
            "healthy": self.healthy,
            "uptime_seconds": self.uptime_seconds,
            "multi_tenant": True,
            "config": {
                "max_batch_size": self.config.max_batch_size,
                "request_timeout_s": self.config.request_timeout_s,
                "warm_on_start": self.config.warm_on_start,
                "admission_queue": self.config.admission_queue,
            },
        }
        report.update(self.metrics.snapshot())
        report["traces"] = self.tracer.stats()
        report["tenants"] = self.registry.snapshot()
        return report
