"""Multi-tenant serving load benchmark — routing overhead and isolation.

Two tenants (a ``hospital-x-like`` pipeline and a ``snomed-like``
counterpart) serve from one process behind the
:class:`~repro.tenancy.service.MultiTenantLinkingService`.  The
question the benchmark answers: what does the tenant layer — name
resolution, quota admission, registry LRU bookkeeping, per-tenant
metric partitions — cost on the hot path, and does any tenant's
traffic fail under mixed load?

Design:

* **Baseline** — one dedicated :class:`LinkingService` per tenant,
  both driven concurrently by the same closed-loop client mix.  The
  baseline pays identical CPU contention (same thread count, same
  process), so the difference to the multi-tenant run isolates the
  routing layer rather than scheduling noise.
* **Multi-tenant** — the same client mix routed through one
  :class:`MultiTenantLinkingService` over both tenants.
* **Paired passes** — the two modes are measured back-to-back per
  pass (after a warm-up pass that loads every tenant), and
  the headline ``overhead_p50_pct`` is the *median* of the per-pass
  paired overheads — a transient stall in one pass moves one sample,
  not the estimate, which a single-pass difference would absorb.

``availability`` is the minimum across tenants and passes of the
multi-tenant run's per-tenant availability; the benchmark gates it at
1.0 unconditionally (every request served or explicitly refused —
nothing hung, nothing silently dropped).
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Sequence

from repro.core.config import (
    LinkerConfig,
    ServingConfig,
    TenancyConfig,
    TenantConfig,
)
from repro.core.linker import NeuralConceptLinker
from repro.eval.experiments.scale import DEFAULT, ExperimentScale
from repro.eval.harness import build_pipeline
from repro.eval.reporting import emit, format_table
from repro.serving.service import LinkingService
from repro.tenancy import MultiTenantLinkingService, TenantRegistry
from repro.utils.rng import derive_rng, ensure_rng

#: tenant name -> dataset preset backing it.
TENANT_DATASETS = {"icd": "hospital-x-like", "sct": "snomed-like"}


def _percentile(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class _ClientStats:
    """One closed-loop client's tally (merged after join)."""

    __slots__ = ("ok", "failed", "latencies")

    def __init__(self) -> None:
        self.ok = 0
        self.failed = 0
        self.latencies: List[float] = []


def _drive_mixed(
    link: Callable[[str, str], Any],
    tenant_queries: Dict[str, Sequence[str]],
    clients_per_tenant: int,
    duration_s: float,
) -> Dict[str, Dict[str, float]]:
    """Closed-loop mixed-tenant load; returns per-tenant stats.

    ``link(tenant, query)`` is the dispatch under test — either a
    dedicated service per tenant or the multi-tenant router.
    """
    tenants = sorted(tenant_queries)
    plan = [
        (tenant, index)
        for tenant in tenants
        for index in range(clients_per_tenant)
    ]
    tallies = {
        (tenant, index): _ClientStats() for tenant, index in plan
    }
    barrier = threading.Barrier(len(plan))
    stop_at = [0.0]

    def client(tenant: str, index: int) -> None:
        stats = tallies[(tenant, index)]
        queries = tenant_queries[tenant]
        cursor = index
        barrier.wait(timeout=30.0)
        while time.monotonic() < stop_at[0]:
            query = queries[cursor % len(queries)]
            cursor += clients_per_tenant
            started = time.perf_counter()
            try:
                link(tenant, query)
            except Exception:  # noqa: BLE001 - tallied as unavailability
                stats.failed += 1
            else:
                stats.ok += 1
                stats.latencies.append(time.perf_counter() - started)

    threads = [
        threading.Thread(target=client, args=pair, daemon=True)
        for pair in plan
    ]
    # The barrier releases all clients together; the clock starts just
    # before the last thread launches so every client sees the window.
    stop_at[0] = time.monotonic() + duration_s + 0.5
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    report: Dict[str, Dict[str, float]] = {}
    for tenant in tenants:
        stats = [tallies[(tenant, i)] for i in range(clients_per_tenant)]
        ok = sum(s.ok for s in stats)
        failed = sum(s.failed for s in stats)
        issued = ok + failed
        latencies = [x for s in stats for x in s.latencies]
        report[tenant] = {
            "issued": issued,
            "served": ok,
            "failed": failed,
            "availability": ok / max(issued, 1),
            "qps": ok / max(duration_s, 1e-12),
            "latency_p50_s": _percentile(latencies, 0.50),
            "latency_p99_s": _percentile(latencies, 0.99),
        }
    return report


def _overall_p50(per_tenant: Dict[str, Dict[str, float]]) -> float:
    """Served-request-weighted p50 across tenants (seconds)."""
    total = sum(stats["served"] for stats in per_tenant.values())
    if total == 0:
        return 0.0
    return sum(
        stats["latency_p50_s"] * stats["served"]
        for stats in per_tenant.values()
    ) / total


def run_tenant_load(
    scale: ExperimentScale = DEFAULT,
    seed: int = 2018,
    k: int = 10,
    clients_per_tenant: int = 4,
    duration_s: float = 1.5,
    passes: int = 3,
    verbose: bool = True,
) -> Dict[str, object]:
    """Paired dedicated-vs-multi-tenant load; returns the JSON report.

    The report's gates: ``availability`` (min per-tenant availability
    of the multi-tenant runs; must be 1.0) and ``overhead_p50_pct``
    (median paired p50 overhead of routing; gated ≤ 10% by
    ``benchmarks/test_tenant_serving.py``).
    """
    generator = ensure_rng(seed)
    worlds: Dict[str, Any] = {}
    for tenant, dataset in sorted(TENANT_DATASETS.items()):
        bundle = scale.dataset(dataset, rng=derive_rng(generator, dataset))
        pipeline = build_pipeline(
            bundle,
            model_config=scale.model_config(),
            training_config=scale.training_config(),
            cbow_config=scale.cbow_config(),
            rng=derive_rng(generator, dataset, "pipeline"),
        )
        worlds[tenant] = (bundle, pipeline)

    tenant_queries = {
        tenant: [query.text for query in worlds[tenant][0].queries]
        for tenant in worlds
    }
    serving = ServingConfig(warm_on_start=False)
    linker_config = LinkerConfig(k=k)

    # -- dedicated baseline: one service per tenant, same process.
    dedicated: Dict[str, LinkingService] = {}
    for tenant, (bundle, pipeline) in worlds.items():
        linker = NeuralConceptLinker(
            pipeline.model, bundle.ontology, linker_config, kb=bundle.kb,
            word_vectors=pipeline.word_vectors,
        )
        dedicated[tenant] = LinkingService(linker, serving).start()

    # -- multi-tenant: one router over both, via an in-memory loader.
    def loader(name: str, tenant: TenantConfig, config: LinkerConfig):
        bundle, pipeline = worlds[name]
        linker = NeuralConceptLinker(
            pipeline.model, bundle.ontology, config, kb=bundle.kb,
            word_vectors=pipeline.word_vectors,
        )
        return linker, bundle.kb

    registry = TenantRegistry(
        TenancyConfig(
            definitions={name: TenantConfig() for name in worlds},
            default=sorted(worlds)[0],
        ),
        serving=serving,
        linker_config=linker_config,
        loader=loader,
    )
    multi = MultiTenantLinkingService(registry).start()

    def link_dedicated(tenant: str, query: str) -> None:
        dedicated[tenant].link_many([query], k=k)

    def link_multi(tenant: str, query: str) -> None:
        multi.link_many([query], k=k, tenant=tenant)

    pass_reports: List[Dict[str, Any]] = []
    overheads: List[float] = []
    try:
        # Warm-up pass (not recorded): loads every tenant and pays
        # first-touch costs on both sides of the comparison.
        _drive_mixed(
            link_dedicated, tenant_queries, clients_per_tenant, 0.3
        )
        _drive_mixed(link_multi, tenant_queries, clients_per_tenant, 0.3)
        for _ in range(passes):
            base = _drive_mixed(
                link_dedicated, tenant_queries, clients_per_tenant,
                duration_s,
            )
            routed = _drive_mixed(
                link_multi, tenant_queries, clients_per_tenant, duration_s
            )
            base_p50 = _overall_p50(base)
            routed_p50 = _overall_p50(routed)
            overheads.append(
                (routed_p50 - base_p50) / max(base_p50, 1e-12) * 100.0
            )
            pass_reports.append({"dedicated": base, "multi_tenant": routed})
    finally:
        multi.stop()
        for service in dedicated.values():
            service.stop()

    availability = min(
        stats["availability"]
        for report in pass_reports
        for stats in report["multi_tenant"].values()
    )
    final = pass_reports[-1]
    report: Dict[str, object] = {
        "tenants": {
            name: TENANT_DATASETS[name] for name in sorted(worlds)
        },
        "scale": scale.name,
        "seed": seed,
        "k": k,
        "clients_per_tenant": clients_per_tenant,
        "duration_s": duration_s,
        "passes": passes,
        "cpu_count": os.cpu_count(),
        "modes": final,
        "per_pass_overhead_p50_pct": overheads,
        "overhead_p50_pct": statistics.median(overheads),
        "availability": availability,
    }
    if verbose:
        rows = []
        for mode in ("dedicated", "multi_tenant"):
            for tenant, stats in sorted(final[mode].items()):
                rows.append(
                    [
                        mode,
                        tenant,
                        int(stats["issued"]),
                        round(stats["qps"], 1),
                        round(stats["latency_p50_s"] * 1e3, 3),
                        round(stats["latency_p99_s"] * 1e3, 2),
                        round(stats["availability"], 4),
                    ]
                )
        emit(
            format_table(
                ["mode", "tenant", "issued", "qps", "p50 (ms)",
                 "p99 (ms)", "avail"],
                rows,
                title=(
                    f"Multi-tenant serving, {2 * clients_per_tenant} "
                    f"clients cpus={os.cpu_count()} (p50 overhead "
                    f"{report['overhead_p50_pct']:+.2f}%)"
                ),
            )
        )
    return report
