"""The tenant registry: lazy-loaded, LRU-evicted per-tenant services.

One process serves several ontologies at once.  Each *tenant* declared
in the ``tenants`` section of :class:`~repro.core.config.RuntimeConfig`
owns a linker (its own pipeline and/or compiled artifact), a
:class:`~repro.serving.service.LinkingService` with its own concept
engine and SLO window, a :class:`MetricsRegistry` that
survives eviction, and an optional rolling request quota.

Loading is lazy: a tenant costs nothing until its first request, at
which point the registry loads its pipeline, builds a service, and —
when the loaded set would exceed ``max_loaded`` or
``memory_budget_mb`` — evicts the least recently used tenant first
(drained via ``service.stop()``, metrics retained, reloadable on the
next touch).
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import (
    LinkerConfig,
    ServingConfig,
    TenancyConfig,
    TenantConfig,
)
from repro.obs.trace import Tracer
from repro.serving.metrics import MetricsRegistry
from repro.serving.service import LinkingService
from repro.tenancy.errors import QuotaExceededError, UnknownTenantError
from repro.utils.logging import get_logger

LOGGER = get_logger("tenancy.registry")

#: ``loader(name, tenant_config, linker_config) -> (linker, kb)``.
#: The registry is agnostic to where linkers come from; the default is
#: :func:`pipeline_loader`, tests inject in-memory builders.
TenantLoader = Callable[[str, TenantConfig, LinkerConfig], Tuple[Any, Any]]

#: Quota window length.  ``quota_per_minute`` names the unit.
QUOTA_WINDOW_S = 60.0


def pipeline_loader(
    base_pipeline: Optional[str] = None, verify: bool = True
) -> TenantLoader:
    """The on-disk loader: each tenant from its saved pipeline.

    A tenant whose ``pipeline`` is empty falls back to
    ``base_pipeline`` — the ``repro serve --artifact NAME=DIR`` shape
    where every tenant shares one trained model but mounts its own
    compiled artifact.
    """

    def load(name: str, tenant: TenantConfig, config: LinkerConfig):
        from repro.core.persistence import load_pipeline
        from repro.utils.errors import ConfigurationError

        directory = tenant.pipeline or base_pipeline
        if not directory:
            raise ConfigurationError(
                f"tenant {name!r} declares no pipeline and the deployment "
                "has no base pipeline (--model) to fall back to"
            )
        _, _, kb, _, linker = load_pipeline(
            directory, linker_config=config, verify=verify
        )
        return linker, kb

    return load


class QuotaWindow:
    """A rolling-window request quota (thread-safe).

    Admits up to ``limit`` requests per ``window_s`` seconds; the
    window slides continuously (a deque of admission timestamps) rather
    than resetting on a boundary, so a burst cannot double-spend across
    a reset.  ``limit <= 0`` disables the quota.
    """

    def __init__(
        self,
        limit: int,
        window_s: float = QUOTA_WINDOW_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limit = limit
        self.window_s = window_s
        self._clock = clock
        self._admitted: collections.deque = collections.deque()
        self._lock = threading.Lock()

    def admit(self) -> None:
        """Record one request, or raise :class:`QuotaExceededError`."""
        if self.limit <= 0:
            return
        now = self._clock()
        with self._lock:
            horizon = now - self.window_s
            while self._admitted and self._admitted[0] <= horizon:
                self._admitted.popleft()
            if len(self._admitted) >= self.limit:
                retry_after = max(
                    0.0, self._admitted[0] + self.window_s - now
                )
                raise QuotaExceededError(
                    f"quota of {self.limit} requests per "
                    f"{self.window_s:.0f}s exhausted",
                    retry_after_s=retry_after,
                )
            self._admitted.append(now)

    def snapshot(self) -> Dict[str, Any]:
        """Current window occupancy (expired admissions dropped)."""
        with self._lock:
            horizon = self._clock() - self.window_s
            while self._admitted and self._admitted[0] <= horizon:
                self._admitted.popleft()
            used = len(self._admitted)
        return {
            "limit": self.limit,
            "used": used,
            "window_s": self.window_s,
        }


class TenantRuntime:
    """Everything one tenant owns, loaded or not.

    The :class:`MetricsRegistry` and :class:`QuotaWindow` live here —
    not on the service — so eviction (which drops the service and its
    engine) never zeroes a tenant's counters or resets its quota.
    """

    def __init__(
        self,
        name: str,
        config: TenantConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.config = config
        self.metrics = MetricsRegistry()
        self.quota = QuotaWindow(config.quota_per_minute, clock=clock)
        self.service: Optional[LinkingService] = None
        self.kb: Any = None
        self.cost_bytes: int = 0

    @property
    def loaded(self) -> bool:
        return self.service is not None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready per-tenant report (loaded or not)."""
        info: Dict[str, Any] = {
            "loaded": self.loaded,
            "artifact_dir": self.config.artifact_dir,
            "retrieval_mode": self.config.retrieval_mode,
            "cost_bytes": self.cost_bytes if self.loaded else 0,
            "quota": self.quota.snapshot(),
            "loads": self.metrics.counter("tenant_loads").value,
            "evictions": self.metrics.counter("tenant_evictions").value,
            "requests": self.metrics.counter("requests_total").value,
        }
        if self.loaded:
            assert self.service is not None
            info["slo"] = self.service.slo.snapshot()
        return info


def _directory_bytes(path: Optional[str]) -> int:
    """Total size of the regular files under ``path`` (0 when absent).

    The registry accounts memory by on-disk footprint: a loaded
    format-3 artifact (mmap'd or heap-deserialised) and pipeline are
    both dominated by exactly these bytes.
    """
    if not path:
        return 0
    root = Path(path)
    if not root.exists():
        return 0
    return sum(
        entry.stat().st_size for entry in root.rglob("*") if entry.is_file()
    )


class TenantRegistry:
    """Declared tenants → lazily loaded per-tenant services.

    Thread-safe.  ``resolve`` maps a request's tenant name (or its
    absence) to a :class:`TenantRuntime`; ``service_for`` loads the
    tenant on first touch, refreshes LRU order, and evicts least
    recently used tenants while the loaded set exceeds ``max_loaded``
    or ``memory_budget_mb``.
    """

    def __init__(
        self,
        tenancy: TenancyConfig,
        serving: Optional[ServingConfig] = None,
        linker_config: Optional[LinkerConfig] = None,
        loader: Optional[TenantLoader] = None,
        tracer: Optional[Tracer] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.tenancy = tenancy
        self.serving = serving if serving is not None else ServingConfig()
        self.linker_config = (
            linker_config if linker_config is not None else LinkerConfig()
        )
        self._loader = loader if loader is not None else pipeline_loader()
        # One tracer across tenants: traces carry the tenant in their
        # root-span tags, and a shared ring keeps /v1/traces whole.
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                sample_rate=self.serving.trace_sample_rate,
                capacity=self.serving.trace_buffer,
            )
        )
        self._lock = threading.RLock()
        self._runtimes: Dict[str, TenantRuntime] = {
            name: TenantRuntime(name, config, clock=clock)
            for name, config in tenancy.definitions.items()
        }
        # Loaded tenants, least recently used first.
        self._lru: "collections.OrderedDict[str, TenantRuntime]" = (
            collections.OrderedDict()
        )
        self._stopped = False

    # -- naming --------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        return sorted(self._runtimes)

    def resolve(self, tenant: Optional[str] = None) -> TenantRuntime:
        """The runtime for ``tenant`` (or the default when ``None``)."""
        if tenant is None or tenant == "":
            tenant = self.tenancy.default
            if not tenant:
                raise UnknownTenantError(
                    "no tenant named and the deployment declares no "
                    f"default; declared tenants: {self.names}"
                )
        runtime = self._runtimes.get(tenant)
        if runtime is None:
            raise UnknownTenantError(
                f"unknown tenant {tenant!r}; declared tenants: {self.names}"
            )
        return runtime

    # -- loading / eviction --------------------------------------------------

    def service_for(self, runtime: TenantRuntime) -> LinkingService:
        """The tenant's started service, loading it on first touch."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("tenant registry is stopped")
            if runtime.service is not None:
                self._lru.move_to_end(runtime.name)
                return runtime.service
            self._load(runtime)
            self._lru[runtime.name] = runtime
            self._evict_to_budget(exclude=runtime.name)
            assert runtime.service is not None
            return runtime.service

    def _load(self, runtime: TenantRuntime) -> None:
        tenant = runtime.config
        linker_config = tenant.to_linker_config(self.linker_config)
        linker, kb = self._loader(runtime.name, tenant, linker_config)
        serving = replace(self.serving, warm_on_start=tenant.warm_on_load)
        service = LinkingService(
            linker,
            serving,
            metrics=runtime.metrics,
            tracer=self.tracer,
        )
        # Block on warm-up when requested: the tenant is already paying
        # a lazy-load stall, and warm_on_load exists to make the request
        # after it fast.
        service.start(wait=tenant.warm_on_load)
        runtime.service = service
        runtime.kb = kb
        runtime.cost_bytes = _directory_bytes(
            tenant.artifact_dir
        ) or _directory_bytes(tenant.pipeline)
        runtime.metrics.counter("tenant_loads").inc()
        LOGGER.info(
            "tenant %s loaded (%d bytes accounted)",
            runtime.name,
            runtime.cost_bytes,
        )

    def _evict_to_budget(self, exclude: str) -> None:
        """Drop LRU tenants until the loaded set fits the budgets."""
        budget_bytes = int(self.tenancy.memory_budget_mb * 1024 * 1024)
        while True:
            over_count = (
                self.tenancy.max_loaded > 0
                and len(self._lru) > self.tenancy.max_loaded
            )
            over_bytes = budget_bytes > 0 and (
                sum(r.cost_bytes for r in self._lru.values()) > budget_bytes
            )
            if not (over_count or over_bytes):
                return
            victim = next(
                (r for name, r in self._lru.items() if name != exclude),
                None,
            )
            if victim is None:
                # Only the tenant being served remains; a budget too
                # small for one tenant must not make it unservable.
                return
            self._evict(victim)

    def _evict(self, runtime: TenantRuntime) -> None:
        service = runtime.service
        if service is not None:
            service.stop()
        runtime.service = None
        runtime.kb = None
        runtime.cost_bytes = 0
        self._lru.pop(runtime.name, None)
        runtime.metrics.counter("tenant_evictions").inc()
        LOGGER.info("tenant %s evicted", runtime.name)

    # -- cross-ontology access ----------------------------------------------

    def ontology_for(self, runtime: TenantRuntime):
        """The tenant's ontology, loading the tenant if needed."""
        return self.service_for(runtime).ontology

    def kb_for(self, runtime: TenantRuntime):
        """The tenant's knowledge base (may be ``None``), loading it."""
        self.service_for(runtime)
        return runtime.kb

    # -- lifecycle -----------------------------------------------------------

    def loaded_names(self) -> List[str]:
        """Currently loaded tenants, least recently used first."""
        with self._lock:
            return list(self._lru)

    def snapshot(self) -> Dict[str, Any]:
        """Registry-level view: budgets, LRU order, per-tenant reports."""
        with self._lock:
            tenants = {
                name: runtime.snapshot()
                for name, runtime in sorted(self._runtimes.items())
            }
            return {
                "default": self.tenancy.default,
                "max_loaded": self.tenancy.max_loaded,
                "memory_budget_mb": self.tenancy.memory_budget_mb,
                "loaded": list(self._lru),
                "loaded_bytes": sum(
                    r.cost_bytes for r in self._lru.values()
                ),
                "tenants": tenants,
            }

    def stop(self) -> None:
        """Drain and drop every loaded tenant; the registry stays stopped."""
        with self._lock:
            self._stopped = True
            for runtime in list(self._lru.values()):
                self._evict(runtime)
