"""Closed-loop lifecycle drill: pool → resolve → retrain → hot swap.

Shared by the ``repro lifecycle`` CLI command, the lifecycle benchmark
(``BENCH_lifecycle.json``), and the acceptance tests.  The drill builds
a live serving stack from a synthetic dataset, runs real traffic
through it, resolves pooled uncertain queries against the dataset's
ground truth (playing the expert), retrains, recompiles, and performs a
blue/green hot swap — while client threads hammer the service to prove
the swap window drops nothing.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import LifecycleConfig, LinkerConfig, ServingConfig
from repro.core.linker import NeuralConceptLinker
from repro.core.trainer import ComAidTrainer
from repro.eval.experiments.scale import PRESETS, ExperimentScale
from repro.lifecycle import LifecycleController
from repro.serving.service import LinkingService
from repro.utils.logging import get_logger

LOGGER = get_logger("eval.lifecycle_drill")


def build_lifecycle_stack(
    scale: ExperimentScale,
    workdir: Path,
    dataset: str = "hospital-x-like",
    seed: int = 7,
    lifecycle_config: Optional[LifecycleConfig] = None,
    serving_config: Optional[ServingConfig] = None,
):
    """Train a pipeline, compile it, and stand up a lifecycle-enabled
    service.

    Returns ``(service, controller, ground_truth)`` with the service
    already started and warmed; ``ground_truth`` maps query text to
    the dataset's gold concept (the scripted expert's answer key).
    """
    import dataclasses

    from repro.engine.compile import compile_artifact

    config = (
        lifecycle_config if lifecycle_config is not None else LifecycleConfig()
    )
    bundle = scale.dataset(dataset, rng=seed)
    trainer = ComAidTrainer(
        scale.model_config(), scale.training_config(), rng=seed
    )
    model = trainer.fit(bundle.kb)
    active_dir = workdir / "active"
    compile_artifact(
        active_dir,
        model,
        bundle.ontology,
        kb=bundle.kb,
        metadata={"drill": "lifecycle", "seed": seed},
        index=config.compile_index,
    )
    linker = NeuralConceptLinker(
        model,
        bundle.ontology,
        dataclasses.replace(LinkerConfig(), artifact_dir=str(active_dir)),
        kb=bundle.kb,
    )
    service = LinkingService(
        linker,
        serving_config
        if serving_config is not None
        else ServingConfig(warm_on_start=True),
    )
    controller = LifecycleController(
        service,
        trainer,
        bundle.kb,
        config=config,
        workdir=workdir,
        active_dir=active_dir,
        seed=seed,
    )
    service.attach_lifecycle(controller)
    service.start(wait=True)
    ground_truth = {query.text: query.cid for query in bundle.queries}
    return service, controller, ground_truth


def feed_traffic(
    service: LinkingService,
    queries: Sequence[str],
    chunk: int = 8,
) -> List[Any]:
    """Run ``queries`` through the service in max-batch-sized bursts."""
    results: List[Any] = []
    for start in range(0, len(queries), chunk):
        results.extend(service.link_many(list(queries[start:start + chunk])))
    return results


def resolve_pool(
    controller: LifecycleController,
    ground_truth: Dict[str, str],
    minimum: int = 0,
) -> int:
    """Play the expert: resolve every pooled query against gold labels.

    With ``minimum``, additionally resolves gold queries directly until
    at least that many pairs are staged — the drill must reach the
    retrain threshold even when the model is confident everywhere.
    """
    resolved = 0
    for item in controller.pool.drain():
        cid = ground_truth.get(item.query)
        if cid is not None:
            controller.resolve(item.query, cid)
            resolved += 1
    if minimum:
        for query, cid in ground_truth.items():
            if controller.staged_pairs >= minimum:
                break
            controller.resolve(query, cid)
            resolved += 1
    return resolved


class _HammerClient(threading.Thread):
    """A closed-loop client driving traffic until told to stop."""

    def __init__(
        self, service: LinkingService, queries: Sequence[str], offset: int
    ) -> None:
        super().__init__(name=f"hammer-{offset}", daemon=True)
        self.service = service
        self.queries = list(queries)
        self.offset = offset
        self.stop = threading.Event()
        self.requests = 0
        self.failures = 0
        self.degraded = 0
        self.latencies: List[float] = []

    def run(self) -> None:
        index = self.offset
        while not self.stop.is_set():
            query = self.queries[index % len(self.queries)]
            index += 1
            started = time.monotonic()
            try:
                result = self.service.link(query)
            except Exception:  # noqa: BLE001 - every failure is the finding
                self.failures += 1
                continue
            finally:
                self.requests += 1
            self.latencies.append(time.monotonic() - started)
            if result.degraded:
                self.degraded += 1


def run_lifecycle_drill(
    scale: str = "tiny",
    seed: int = 7,
    workdir: Optional[Path] = None,
    clients: int = 2,
    retrain_epochs: int = 2,
) -> Dict[str, Any]:
    """The full closed loop under load; returns a JSON-ready report.

    Acceptance criteria measured here:

    * ``availability`` — fraction of hammer-client requests that
      succeeded *while the stage + promote window was open*; the hot
      swap must not fail or degrade a single request.
    * ``promoted`` — the shadow-scored candidate passed every gate and
      the engine pointer flipped (fingerprints prove it).
    * ``shadow_overhead_ratio`` — mean primary request latency while a
      shadow candidate was scoring, over the pre-staging baseline.
    """
    preset = PRESETS[scale]
    own_tmp: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="lifecycle-drill-")
        workdir = Path(own_tmp.name)
    config = LifecycleConfig(
        enabled=True,
        pool_capacity=64,
        # Permissive uncertainty criteria: the drill needs pairs to
        # flow, not a tuned triage policy.
        loss_threshold=1.0,
        margin_threshold=5.0,
        retrain_after=8,
        retrain_epochs=retrain_epochs,
        min_shadow_samples=8,
        # A fine-tuned model legitimately diverges from its parent on
        # the queries it was just corrected on; the drill gates on
        # sanity, not parity.
        min_agreement=0.5,
        max_log_prob_drop=10.0,
        max_latency_ratio=50.0,
    )
    try:
        service, controller, ground_truth = build_lifecycle_stack(
            preset, workdir, seed=seed, lifecycle_config=config
        )
        queries = list(ground_truth)
        try:
            fingerprint_before = service.linker.model_fingerprint

            # Baseline latency, no candidate anywhere.
            baseline = feed_traffic(service, queries[:32])
            baseline_seconds = [r.timing.total() for r in baseline]

            # Pool + resolve + retrain + compile.
            feed_traffic(service, queries)
            resolve_pool(
                controller, ground_truth, minimum=config.retrain_after
            )
            controller.retrain()
            candidate_dir = controller.compile_candidate()

            # Open the swap window under load.
            hammers = [
                _HammerClient(service, queries, offset=i * 7)
                for i in range(clients)
            ]
            for hammer in hammers:
                hammer.start()
            try:
                controller.stage(artifact_dir=candidate_dir)
                shadowed = feed_traffic(service, queries[:48])
                shadow_seconds = [r.timing.total() for r in shadowed]
                promotion = controller.promote()
            finally:
                for hammer in hammers:
                    hammer.stop.set()
                for hammer in hammers:
                    hammer.join(timeout=10.0)

            fingerprint_after = service.linker.model_fingerprint
            requests = sum(h.requests for h in hammers)
            failures = sum(h.failures for h in hammers)
            degraded = sum(h.degraded for h in hammers)
            availability = (
                (requests - failures - degraded) / requests
                if requests
                else 1.0
            )
            baseline_mean = (
                sum(baseline_seconds) / len(baseline_seconds)
                if baseline_seconds
                else 0.0
            )
            shadow_mean = (
                sum(shadow_seconds) / len(shadow_seconds)
                if shadow_seconds
                else 0.0
            )
            overhead = (
                shadow_mean / baseline_mean if baseline_mean > 0 else 1.0
            )
            return {
                "scale": scale,
                "seed": seed,
                "promoted": bool(promotion.get("promoted")),
                "promotion": promotion,
                "fingerprint_before": fingerprint_before,
                "fingerprint_after": fingerprint_after,
                "fingerprint_changed": fingerprint_before != fingerprint_after,
                "swap_window": {
                    "clients": clients,
                    "requests": requests,
                    "failures": failures,
                    "degraded": degraded,
                    "availability": availability,
                },
                "shadow_overhead_ratio": overhead,
                "baseline_mean_seconds": baseline_mean,
                "shadowed_mean_seconds": shadow_mean,
                "status": controller.status(),
            }
        finally:
            service.stop()
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
