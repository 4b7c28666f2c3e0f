"""The linking service: dispatcher + metrics around one linker.

``LinkingService`` is the transport-agnostic middle layer between the
HTTP server and :class:`~repro.core.linker.NeuralConceptLinker`:

* every request flows through an
  :class:`~repro.serving.frontend.AsyncFrontend` dispatcher — bounded
  admission with shedding and queueing deadlines, and fusion of
  whatever is queued when the executor frees up into one
  ``link_batch`` (one shared Phase-II decode).  With ``workers=0`` the
  executor is in-process: the dispatcher thread runs ``link_batch``
  under the service's model lock, which serialises model access
  (determinism under concurrency) and gives blue/green swaps their
  atomicity.  :class:`ProcPoolLinkingService` swaps in forked workers;
  nothing else changes;
* warm-up (``warm_cache`` — touching every indexed concept's
  precompiled state) runs on a background thread at start; readiness
  flips only once it finishes, so a load balancer never routes traffic
  to a cold instance;
* per-request latency, per-phase OR/CR/ED/RT timings, result counts,
  and error counts land in a :class:`~repro.serving.metrics.MetricsRegistry`,
  and ``snapshot()`` merges those with engine and dispatcher statistics
  into one JSON-ready report (the ``GET /metrics`` payload).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import ServingConfig
from repro.core.linker import LinkResult, NeuralConceptLinker
from repro.obs import trace
from repro.obs.slo import SloTracker
from repro.obs.trace import Tracer
from repro.serving.frontend import AsyncFrontend, ShedError
from repro.serving.metrics import MetricsRegistry
from repro.serving.procpool import ProcessPool
from repro.utils.faults import probe
from repro.utils.logging import get_logger

LOGGER = get_logger("serving.service")


class ServiceNotReadyError(RuntimeError):
    """Raised for requests arriving before warm-up has finished."""


class LinkingService:
    """A long-lived, concurrent wrapper around one trained linker."""

    def __init__(
        self,
        linker: Optional[NeuralConceptLinker],
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
        # Serialises model access between the in-process executor and
        # a blue/green engine flip: _run_batch holds it around every
        # link_batch call, exclusive() hands it to the swapper, so a
        # fused batch either completes entirely on the old engine or
        # starts entirely on the new one.
        self._model_lock = threading.Lock()
        self._lifecycle: Optional[object] = None
        self._frontend: Optional[AsyncFrontend] = None

    # -- lifecycle ----------------------------------------------------------

    def _executor(self) -> Dict[str, Any]:
        """The dispatcher's executor: in-process ``link_batch`` here."""
        return {"run_batch": self._run_batch}

    def start(self, wait: bool = False) -> "LinkingService":
        """Start the dispatcher and warm-up; with ``wait`` block until ready."""
        if self._stopped.is_set():
            raise RuntimeError(
                "service was stopped; build a new service to restart"
            )
        if self._started_at is not None:
            raise RuntimeError("service already started")
        self._started_at = time.monotonic()
        self._frontend = AsyncFrontend(
            admission_bound=self.config.admission_queue,
            deadline_ms=self.config.deadline_ms,
            shed_policy=self.config.shed_policy,
            max_batch_size=self.config.max_batch_size,
            metrics=self.metrics,
            **self._executor(),
        )
        # Forked workers warm their own linkers before their ready
        # handshake; only an in-process linker warms here.
        if self.linker is not None and self.config.warm_on_start:
            self._warm_thread = threading.Thread(
                target=self._warm, name="link-warmup", daemon=True
            )
            self._warm_thread.start()
        else:
            self._ready.set()
        if wait:
            self._ready.wait()
            self._frontend.all_ready.wait()
            if self._warm_error is not None:
                raise RuntimeError("warm-up failed") from self._warm_error
            if self._frontend.init_error is not None:
                raise RuntimeError(
                    f"worker start-up failed: {self._frontend.init_error}"
                )
        return self

    def _warm(self) -> None:
        # Bounded retry-with-backoff: a transiently failing warm-up
        # (cold storage, a read error paging in a mapped slab) should
        # not condemn the instance to serving cold forever.  Only
        # Exception is caught — KeyboardInterrupt/SystemExit must still
        # unwind the thread (the finally flips readiness either way:
        # serving cold beats serving nothing).
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
                    self.metrics.counter("warmup_concepts").inc(warmed)
                    LOGGER.info(
                        "warm-up done: %d concepts in %.2fs (attempt %d)",
                        warmed,
                        elapsed,
                        attempt,
                    )
                    break
        finally:
            self._ready.set()

    def stop(self) -> None:
        """Drain in-flight requests and stop the dispatcher.

        Idempotent and safe from any state: before ``start`` (nothing
        to drain), after it (in-process work drains; forked workers are
        torn down), concurrently from several threads (one winner does
        the teardown), and repeatedly (no-ops).  A stopped service
        cannot be restarted.
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
        if self._frontend is not None:
            self._frontend.stop()
        if self._warm_thread is not None:
            self._warm_thread.join(timeout=5.0)

    @property
    def healthy(self) -> bool:
        """Liveness: the process can still execute requests."""
        return not self._stopped.is_set()

    @property
    def ready(self) -> bool:
        """Readiness: warm-up finished and the executor accepts work.

        On the worker tier that means every worker handshook ready; a
        worker init failure (e.g. a corrupt slab at map time) keeps
        this False forever.
        """
        return (
            self._ready.is_set()
            and not self._stopped.is_set()
            and self._frontend is not None
            and self._frontend.ready
        )

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
        """Link one query through the dispatcher (blocking)."""
        return self.link_many([query], k=k, timeout=timeout)[0]

    def link_many(
        self,
        queries: Sequence[str],
        k: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[LinkResult]:
        """Link a burst through the admission queue and the executor.

        The burst is admitted (or shed) atomically — never split — run
        possibly fused with other queued bursts, and its results come
        back in submission order.  Raises
        :class:`~repro.serving.frontend.ShedError` under overload
        (HTTP 503, code ``shed``), ``TimeoutError`` past the request
        budget, and :class:`ServiceNotReadyError` before warm-up (or
        the workers' start-up) has finished.
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
        # One span per query, captured here (the caller's context, under
        # the HTTP root span if any) and carried with the request so the
        # executor can nest linker spans beneath it.  The span stays
        # open until the future resolves: its duration is the queue wait
        # plus model time, i.e. what the caller experienced.
        spans = [
            trace.start_span("service.request", query=query)
            for query in queries
        ]
        try:
            try:
                future = self._frontend.submit(
                    list(queries), [k] * len(queries), spans=spans
                )
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
                # Exception, not BaseException: KeyboardInterrupt/
                # SystemExit must propagate without being booked as
                # request failures.
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

    def _run_batch(
        self,
        queries: List[str],
        ks: List[Optional[int]],
        contexts: List[Any],
    ) -> List[LinkResult]:
        """The in-process executor: one fused ``link_batch``."""
        self.metrics.counter("batches_total").inc()
        self.metrics.histogram(
            "batch_size", bounds=[1, 2, 4, 8, 16, 32, 64, 128]
        ).observe(len(queries))
        with self._model_lock:
            results = self.linker.link_batch(
                queries, k=ks, trace_contexts=contexts
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
        this context; an in-flight fused batch completes first (the
        in-process executor holds the same lock around ``link_batch``).
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
        """One JSON-ready report: metrics + engine + dispatcher + lifecycle."""
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
        # Deployment provenance (training seed, checkpoint/resume point)
        # from the pipeline manifest, so BENCH runs can attribute
        # degradation rates to the exact model build.
        if self.linker is not None:
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


class ProcPoolLinkingService(LinkingService):
    """The GIL-free serving tier: N forked workers behind the dispatcher.

    A :class:`LinkingService` whose executor is ``config.workers``
    forked processes (:mod:`repro.serving.procpool`), each mmap-ing the
    compiled artifact (zero copy) and decoding outside the parent's
    GIL.  ``build_linker`` is invoked *inside each forked child* — it
    should construct the worker's linker with ``mmap_artifact=True``
    (the CLI and test fixtures do).  The parent never builds a linker;
    it only needs ``ontology`` to render concept descriptions in
    responses.

    Determinism: every worker runs the same pure function over the
    same frozen artifact, so rankings are identical to the in-process
    reference regardless of worker count or request interleaving — the
    cross-process equivalence suite's guarantee.

    The model lifecycle (blue/green swap) is not wired for this tier:
    ``attach_lifecycle`` refuses.
    """

    def __init__(
        self,
        build_linker,
        ontology,
        config: Optional[ServingConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(None, config, metrics, tracer)
        if self.config.workers < 1:
            raise ValueError(
                "ProcPoolLinkingService requires ServingConfig.workers >= 1"
            )
        self._build_linker = build_linker
        self._ontology = ontology

    def _executor(self) -> Dict[str, Any]:
        """Fork the workers; they build and warm their own linkers."""
        return {
            "pool": ProcessPool(
                self._build_linker,
                self.config.workers,
                warm=self.config.warm_on_start,
            )
        }

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
