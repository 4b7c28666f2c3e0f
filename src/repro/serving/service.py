"""The linking service: batcher + caches + metrics around one linker.

``LinkingService`` is the transport-agnostic middle layer between the
HTTP server and :class:`~repro.core.linker.NeuralConceptLinker`:

* every request flows through a :class:`~repro.serving.batcher.MicroBatcher`
  whose single worker serialises model access (determinism under
  concurrency) and whose coalesced requests share one fused Phase-II
  decode (``link_batch``);
* warm-up (``warm_cache`` — pre-encoding the indexed concepts) runs on
  a background thread at start; readiness flips only once it finishes,
  so a load balancer never routes traffic to a cold instance paying
  full ED cost per query;
* per-request latency, per-phase OR/CR/ED/RT timings, result counts,
  and error counts land in a :class:`~repro.serving.metrics.MetricsRegistry`,
  and ``snapshot()`` merges those with cache and batcher statistics
  into one JSON-ready report (the ``GET /metrics`` payload).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ServingConfig
from repro.core.linker import LinkResult, NeuralConceptLinker
from repro.obs import trace
from repro.obs.slo import SloTracker
from repro.obs.trace import Tracer
from repro.serving.batcher import MicroBatcher
from repro.serving.frontend import AsyncFrontend, ShedError
from repro.serving.metrics import MetricsRegistry
from repro.serving.procpool import ProcessPool
from repro.utils.faults import probe
from repro.utils.logging import get_logger

LOGGER = get_logger("serving.service")


class ServiceNotReadyError(RuntimeError):
    """Raised for requests arriving before warm-up has finished."""


@dataclass(frozen=True)
class _LinkRequest:
    query: str
    k: Optional[int]
    #: Span captured at submit time; the batcher's worker thread
    #: re-enters it so linker spans nest under the right request.
    ctx: Optional[object] = None


class LinkingService:
    """A long-lived, concurrent wrapper around one trained linker."""

    def __init__(
        self,
        linker: NeuralConceptLinker,
        config: Optional[ServingConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.linker = linker
        self.config = config if config is not None else ServingConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                sample_rate=self.config.trace_sample_rate,
                capacity=self.config.trace_buffer,
            )
        )
        self.slo = SloTracker(
            window_s=self.config.slo_window_s,
            availability_objective=self.config.slo_availability,
            deadline_ms=self.config.deadline_ms,
        )
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._stop_lock = threading.Lock()
        self._warm_error: Optional[Exception] = None
        self._warm_thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        # Serialises model access between the batcher worker and a
        # blue/green engine flip: _handle_batch holds it around every
        # link_batch call, exclusive() hands it to the swapper, so a
        # batch either completes entirely on the old engine or starts
        # entirely on the new one.
        self._model_lock = threading.Lock()
        self._lifecycle: Optional[object] = None
        self._batcher: MicroBatcher[_LinkRequest, LinkResult] = MicroBatcher(
            self._handle_batch,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.batch_wait_ms,
            name="link",
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self, wait: bool = False) -> "LinkingService":
        """Begin warm-up; with ``wait`` block until the service is ready."""
        if self._stopped.is_set():
            raise RuntimeError(
                "service was stopped; build a new LinkingService to restart"
            )
        if self._started_at is not None:
            raise RuntimeError("service already started")
        self._started_at = time.monotonic()
        if self.config.warm_on_start:
            self._warm_thread = threading.Thread(
                target=self._warm, name="link-warmup", daemon=True
            )
            self._warm_thread.start()
        else:
            self._ready.set()
        if wait:
            self._ready.wait()
            if self._warm_error is not None:
                raise RuntimeError("warm-up failed") from self._warm_error
        return self

    def _warm(self) -> None:
        # Bounded retry-with-backoff: a transiently failing warm-up
        # (cold storage, a flaky first batch of encodes) should not
        # condemn the instance to serving cold forever.  Only Exception
        # is caught — KeyboardInterrupt/SystemExit must still unwind the
        # thread (the finally flips readiness either way: the caches
        # fill lazily, so serving slowly beats serving nothing).
        try:
            attempts = self.config.warm_retries + 1
            for attempt in range(1, attempts + 1):
                started = time.monotonic()
                try:
                    probe("service.warm")
                    warmed = self.linker.warm_cache()
                except Exception as error:  # noqa: BLE001 - retried, then recorded
                    self._warm_error = error
                    self.metrics.counter("warmup_failures").inc()
                    LOGGER.error(
                        "warm-up attempt %d/%d failed: %s",
                        attempt,
                        attempts,
                        error,
                    )
                    if attempt == attempts or self._stopped.is_set():
                        break
                    backoff = self.config.warm_backoff_s * (2.0 ** (attempt - 1))
                    self.metrics.counter("warmup_retries").inc()
                    if self._stopped.wait(backoff):
                        break
                else:
                    self._warm_error = None
                    elapsed = time.monotonic() - started
                    self.metrics.histogram("warmup_seconds").observe(elapsed)
                    LOGGER.info(
                        "warm-up done: %d encodings in %.2fs (attempt %d)",
                        warmed,
                        elapsed,
                        attempt,
                    )
                    break
        finally:
            self._ready.set()

    def stop(self) -> None:
        """Drain in-flight requests and stop the batcher.

        Idempotent and safe from any state: before ``start`` (nothing
        to drain), after it (drains), concurrently from several threads
        (one winner does the teardown), and repeatedly (no-ops).  A
        stopped service cannot be restarted.
        """
        with self._stop_lock:
            if self._stopped.is_set():
                return
            self._stopped.set()
        lifecycle = self._lifecycle
        if lifecycle is not None:
            close = getattr(lifecycle, "close", None)
            if callable(close):
                close()
        self._batcher.close()
        if self._warm_thread is not None:
            self._warm_thread.join(timeout=5.0)

    @property
    def healthy(self) -> bool:
        """Liveness: the process can still execute requests."""
        return not self._stopped.is_set()

    @property
    def ready(self) -> bool:
        """Readiness: warm-up finished and the service is accepting work."""
        return self._ready.is_set() and not self._stopped.is_set()

    @property
    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- request path -------------------------------------------------------

    def link(
        self,
        query: str,
        k: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> LinkResult:
        """Link one query through the micro-batcher (blocking)."""
        return self.link_many([query], k=k, timeout=timeout)[0]

    def link_many(
        self,
        queries: Sequence[str],
        k: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[LinkResult]:
        """Link several queries, submitted to the batcher as one burst.

        Admission control is burst-level: a burst arriving while the
        batcher's queue already holds ``admission_queue`` or more items
        is shed whole (:class:`ShedError`, HTTP 503 code ``shed``)
        rather than split or queued unboundedly.  A burst from an empty
        queue is always admitted, whatever its size — shedding half a
        request would break its all-or-nothing contract.
        """
        if not self.ready:
            self.metrics.counter("requests_rejected").inc()
            raise ServiceNotReadyError("service is not ready")
        bound = self.config.admission_queue
        if bound > 0 and self._batcher.qsize() >= bound:
            self.metrics.counter("requests_shed").inc()
            # The shed must be visible in the trace, not only counters.
            trace.span_event("frontend.shed", reason="queue_full")
            for _ in queries:
                self.slo.record(0.0, outcome="shed")
            raise ShedError(
                "queue_full",
                f"admission queue is full ({bound} waiting); request shed",
            )
        wait = timeout if timeout is not None else self.config.request_timeout_s
        started = time.monotonic()
        # One span per query, captured here (the caller's context, under
        # the HTTP root span if any) and carried with the request so the
        # batcher's worker thread can nest linker spans beneath it.  The
        # span stays open until the future resolves: its duration is the
        # queue wait plus model time, i.e. what the caller experienced.
        spans = [
            trace.start_span("service.request", query=query)
            for query in queries
        ]
        futures = [
            self._batcher.submit_nowait(
                _LinkRequest(
                    query=query, k=k, ctx=span if span.is_recording else None
                )
            )
            for query, span in zip(queries, spans)
        ]
        results: List[LinkResult] = []
        try:
            for span, future in zip(spans, futures):
                remaining = wait - (time.monotonic() - started)
                try:
                    result = future.result(max(remaining, 0.0))
                except BaseException as error:
                    span.set_tag("error", type(error).__name__)
                    raise
                results.append(result)
                span.set_tag("results", len(result.ranked))
                if result.degraded:
                    span.set_tag("degraded", True)
                    span.set_tag("degraded_reason", result.degraded_reason)
        except TimeoutError:
            self.metrics.counter("requests_timeout").inc()
            for _ in queries:
                self.slo.record(0.0, outcome="error")
            raise
        except Exception:
            # Exception, not BaseException: KeyboardInterrupt/SystemExit
            # must propagate without being booked as request failures.
            self.metrics.counter("requests_failed").inc()
            for _ in queries:
                self.slo.record(0.0, outcome="error")
            raise
        finally:
            for span in spans:
                span.end()
        elapsed = time.monotonic() - started
        for result in results:
            self.metrics.counter("requests_total").inc()
            self.metrics.counter("concepts_returned").inc(len(result.ranked))
            self.metrics.observe_breakdown(result.timing)
            self.slo.record(elapsed, outcome="ok")
            if result.degraded:
                self.metrics.counter("requests_degraded").inc()
                reason = result.degraded_reason or ""
                if reason.startswith("error"):
                    self.metrics.counter("phase2_failures").inc()
                elif reason.startswith("budget"):
                    self.metrics.counter("phase2_budget_exceeded").inc()
        self.metrics.histogram("request_seconds").observe(elapsed)
        return results

    def _handle_batch(
        self, requests: Sequence[_LinkRequest]
    ) -> List[LinkResult]:
        self.metrics.counter("batches_total").inc()
        self.metrics.histogram(
            "batch_size", bounds=[1, 2, 4, 8, 16, 32, 64, 128]
        ).observe(len(requests))
        with self._model_lock:
            results = self.linker.link_batch(
                [request.query for request in requests],
                k=[request.k for request in requests],
                trace_contexts=[request.ctx for request in requests],
            )
        lifecycle = self._lifecycle
        if lifecycle is not None:
            # The observer taps uncertain queries and mirrors traffic
            # onto a shadowing candidate; it must never fail a request.
            try:
                lifecycle.observe_results(results)
            except Exception as error:  # noqa: BLE001 - tap is best-effort
                self.metrics.counter("lifecycle_observer_errors").inc()
                LOGGER.warning("lifecycle observer failed: %s", error)
        return results

    # -- model lifecycle ----------------------------------------------------

    @contextmanager
    def exclusive(self):
        """Exclusive model access: no batch runs while the block does.

        The blue/green swapper flips the linker's engine pointer inside
        this context; in-flight batches complete first (the batcher
        worker holds the same lock around ``link_batch``).
        """
        with self._model_lock:
            yield

    def attach_lifecycle(self, controller: object) -> None:
        """Install the lifecycle controller tapping this service's traffic."""
        if self._lifecycle is not None:
            raise RuntimeError("a lifecycle controller is already attached")
        self._lifecycle = controller

    @property
    def lifecycle(self) -> Optional[object]:
        """The attached lifecycle controller, or None."""
        return self._lifecycle

    @property
    def ontology(self):
        """The ontology answers are rendered against (for the server)."""
        return self.linker.ontology

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready report: metrics + caches + batcher + lifecycle."""
        report: Dict[str, Any] = {
            "ready": self.ready,
            "healthy": self.healthy,
            "uptime_seconds": self.uptime_seconds,
            "config": {
                "max_batch_size": self.config.max_batch_size,
                "batch_wait_ms": self.config.batch_wait_ms,
                "request_timeout_s": self.config.request_timeout_s,
                "warm_on_start": self.config.warm_on_start,
                "admission_queue": self.config.admission_queue,
            },
        }
        report.update(self.metrics.snapshot())
        report["batcher"] = self._batcher.stats.as_dict()
        report["traces"] = self.tracer.stats()
        report["slo"] = self.slo.snapshot()
        cache_stats = getattr(self.linker, "cache_stats", None)
        if callable(cache_stats):
            report["caches"] = {
                stats.name: stats.as_dict() for stats in cache_stats()
            }
        # Deployment provenance (training seed, checkpoint/resume point)
        # from the pipeline manifest, so BENCH runs can attribute
        # degradation rates to the exact model build.
        report["pipeline"] = dict(
            getattr(self.linker, "pipeline_metadata", None) or {}
        )
        # Concept-engine counters (retrievals by mode, score batches)
        # when the linker serves from a compiled artifact.
        engine = getattr(self.linker, "engine", None)
        if engine is not None:
            report["engine"] = engine.stats()
        # Lifecycle state (pool fill, swap state, rollback reason
        # codes) when a controller is attached — the operator's view of
        # an in-progress blue/green swap.
        if self._lifecycle is not None:
            status = getattr(self._lifecycle, "status", None)
            if callable(status):
                report["lifecycle"] = status()
        return report


class ProcPoolLinkingService:
    """The GIL-free serving tier: N forked workers behind a front-end.

    Duck-types :class:`LinkingService` for everything the HTTP server
    touches — ``healthy`` / ``ready`` / ``link_many`` / ``snapshot`` /
    ``metrics`` / ``tracer`` / ``ontology`` / ``stop`` — but instead of
    a micro-batcher thread it runs ``config.workers`` forked processes
    (:mod:`repro.serving.procpool`), each mmap-ing the compiled
    artifact (zero copy) and decoding outside the parent's GIL, behind
    an :class:`~repro.serving.frontend.AsyncFrontend` that admits,
    sheds, fuses, and dispatches (:mod:`repro.serving.frontend`).

    ``build_linker`` is invoked *inside each forked child* — it should
    construct the worker's linker with ``mmap_artifact=True`` (the CLI
    and test fixtures do).  The parent
    never builds a linker; it only needs ``ontology`` to render
    concept descriptions in responses.

    Determinism: every worker runs the same pure function over the
    same frozen artifact, so rankings are identical to the in-process
    reference regardless of worker count or request interleaving — the
    cross-process equivalence suite's guarantee.

    The model lifecycle (blue/green swap) is not wired for this tier:
    ``lifecycle`` is always None and ``attach_lifecycle`` refuses.
    """

    def __init__(
        self,
        build_linker,
        ontology,
        config: Optional[ServingConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else ServingConfig()
        if self.config.workers < 1:
            raise ValueError(
                "ProcPoolLinkingService requires ServingConfig.workers >= 1"
            )
        self._build_linker = build_linker
        self._ontology = ontology
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                sample_rate=self.config.trace_sample_rate,
                capacity=self.config.trace_buffer,
            )
        )
        self.slo = SloTracker(
            window_s=self.config.slo_window_s,
            availability_objective=self.config.slo_availability,
            deadline_ms=self.config.deadline_ms,
        )
        self._frontend: Optional[AsyncFrontend] = None
        self._stopped = threading.Event()
        self._started_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, wait: bool = False) -> "ProcPoolLinkingService":
        """Fork the workers; with ``wait`` block until all are ready."""
        if self._stopped.is_set():
            raise RuntimeError(
                "service was stopped; build a new service to restart"
            )
        if self._started_at is not None:
            raise RuntimeError("service already started")
        self._started_at = time.monotonic()
        pool = ProcessPool(
            self._build_linker,
            self.config.workers,
            warm=self.config.warm_on_start,
        )
        self._frontend = AsyncFrontend(
            pool,
            admission_bound=self.config.admission_queue,
            deadline_ms=self.config.deadline_ms,
            shed_policy=self.config.shed_policy,
            max_batch_size=self.config.max_batch_size,
            metrics=self.metrics,
        )
        if wait:
            self._frontend.all_ready.wait()
            if self._frontend.init_error is not None:
                raise RuntimeError(
                    f"worker start-up failed: {self._frontend.init_error}"
                )
        return self

    def stop(self) -> None:
        """Stop the front-end and tear the worker pool down (idempotent)."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._frontend is not None:
            self._frontend.stop()

    @property
    def healthy(self) -> bool:
        return not self._stopped.is_set()

    @property
    def ready(self) -> bool:
        """All workers handshook ready; a worker init failure (e.g. a
        corrupt slab at map time) keeps this False forever."""
        return (
            not self._stopped.is_set()
            and self._frontend is not None
            and self._frontend.ready
        )

    @property
    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    @property
    def lifecycle(self) -> Optional[object]:
        return None

    def attach_lifecycle(self, controller: object) -> None:
        """Refused: workers hold forked model copies a swap can't reach."""
        raise RuntimeError(
            "the multi-process tier does not support the model lifecycle; "
            "run workers=0 for blue/green swaps"
        )

    @property
    def ontology(self):
        """The ontology answers are rendered against (for the server)."""
        return self._ontology

    # -- request path -------------------------------------------------------

    def link(
        self,
        query: str,
        k: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> LinkResult:
        """Link one query through the worker pool (may shed)."""
        return self.link_many([query], k=k, timeout=timeout)[0]

    def link_many(
        self,
        queries: Sequence[str],
        k: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[LinkResult]:
        """Link a burst through the admission queue and worker pool.

        The burst is admitted (or shed) atomically, dispatched to one
        worker — possibly fused with other in-flight bursts — and its
        results come back in submission order.  Raises
        :class:`~repro.serving.frontend.ShedError` under overload,
        ``TimeoutError`` past the request budget, and
        :class:`ServiceNotReadyError` before the workers are up.
        """
        if not self.ready:
            self.metrics.counter("requests_rejected").inc()
            detail = ""
            if self._frontend is not None and self._frontend.init_error:
                # Surface the poisoned rollout's cause to the caller:
                # "not ready" with N-1 live workers hiding a corrupt
                # slab is the outage mode hardest to diagnose blind.
                detail = (
                    f": worker start-up failed ({self._frontend.init_error})"
                )
            raise ServiceNotReadyError(f"service is not ready{detail}")
        assert self._frontend is not None
        wait = timeout if timeout is not None else self.config.request_timeout_s
        started = time.monotonic()
        spans = [
            trace.start_span("service.request", query=query)
            for query in queries
        ]
        try:
            try:
                future = self._frontend.submit(
                    list(queries), [k] * len(queries), spans=spans
                )
            except ShedError:
                self.metrics.counter("requests_shed").inc()
                for _ in queries:
                    self.slo.record(0.0, outcome="shed")
                raise
            try:
                results: List[LinkResult] = future.result(wait)
            except ShedError:
                self.metrics.counter("requests_shed").inc()
                for _ in queries:
                    self.slo.record(0.0, outcome="shed")
                raise
            except TimeoutError:
                self.metrics.counter("requests_timeout").inc()
                for _ in queries:
                    self.slo.record(0.0, outcome="error")
                raise
            except Exception:
                self.metrics.counter("requests_failed").inc()
                for _ in queries:
                    self.slo.record(0.0, outcome="error")
                raise
            for span, result in zip(spans, results):
                span.set_tag("results", len(result.ranked))
                if result.degraded:
                    span.set_tag("degraded", True)
                    span.set_tag("degraded_reason", result.degraded_reason)
        except BaseException as error:
            for span in spans:
                if span.is_recording:
                    span.set_tag("error", type(error).__name__)
            raise
        finally:
            for span in spans:
                span.end()
        elapsed = time.monotonic() - started
        for result in results:
            self.metrics.counter("requests_total").inc()
            self.metrics.counter("concepts_returned").inc(len(result.ranked))
            self.metrics.observe_breakdown(result.timing)
            self.slo.record(elapsed, outcome="ok")
            if result.degraded:
                self.metrics.counter("requests_degraded").inc()
                reason = result.degraded_reason or ""
                if reason.startswith("error"):
                    self.metrics.counter("phase2_failures").inc()
                elif reason.startswith("budget"):
                    self.metrics.counter("phase2_budget_exceeded").inc()
        self.metrics.histogram("request_seconds").observe(elapsed)
        return results

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready report: metrics + front-end + per-worker stats."""
        report: Dict[str, Any] = {
            "ready": self.ready,
            "healthy": self.healthy,
            "uptime_seconds": self.uptime_seconds,
            "config": {
                "workers": self.config.workers,
                "admission_queue": self.config.admission_queue,
                "deadline_ms": self.config.deadline_ms,
                "shed_policy": self.config.shed_policy,
                "max_batch_size": self.config.max_batch_size,
                "request_timeout_s": self.config.request_timeout_s,
                "warm_on_start": self.config.warm_on_start,
            },
        }
        report.update(self.metrics.snapshot())
        report["traces"] = self.tracer.stats()
        report["slo"] = self.slo.snapshot()
        if self._frontend is not None:
            report["frontend"] = self._frontend.stats()
        return report
