"""The serving dispatcher: admit, fuse, and execute link requests.

One event-driven dispatcher thread sits between the HTTP threads and
the executor that runs ``link_batch``.  Both serving tiers use it:

* ``workers=0`` — the **in-process executor**: the dispatcher calls the
  service's batch function inline, under the service's model lock;
* ``workers>=1`` — a :class:`~repro.serving.procpool.ProcessPool` of
  forked workers, one job in flight per worker pipe.

What the dispatcher does is the same for both:

* **Admission control** — arrivals enter a bounded
  :class:`AdmissionQueue`; beyond the bound they are *shed* with a
  :class:`ShedError` (surfaced as HTTP 503, error code ``shed``)
  instead of queuing unboundedly.  ``reject_new`` sheds the arrival,
  ``drop_oldest`` sheds the queue head; a per-request queueing deadline
  sheds requests that waited longer than any caller plausibly still
  cares about.
* **Cross-request fusion** — when the executor frees up, the
  dispatcher packs *several* queued requests into one job (up to
  ``max_batch_size`` queries; a larger burst goes alone), which the
  linker runs as one ``link_batch``: every in-flight candidate across
  all fused requests shares a single lock-step ``score_batch`` GEMM
  per decode step.  Nothing waits for a batch to fill.
* **Fault containment** (worker tier) — a worker that dies mid-job
  (OOM-kill, SIGKILL) is detected by its pipe going EOF; the
  dispatcher respawns it and re-dispatches the in-flight job once.  A
  job that kills two workers is failed back to its caller with an
  error envelope.  In-process, an exception from the batch function
  rejects only the requests fused into that call.  No request ever
  hangs or silently drops.

The dispatcher blocks in :func:`multiprocessing.connection.wait` over
the worker pipes (none in-process) plus a socketpair wakeup channel,
so it consumes zero CPU while idle and reacts to both worker
completions and new arrivals without polling.

Observability: ``submit`` optionally carries one parent span per query.
The front-end hangs ``frontend.queue`` / ``frontend.fuse`` child spans
under each.  In-process, the parent span itself is the linker's trace
context, so linker spans nest directly beneath it.  On the worker tier
a ``frontend.dispatch`` span follows; the request IDs travel to the
worker, and the worker's serialized ``worker.link`` subtree is grafted
back under the dispatch span — one stitched trace per request,
spanning processes.  Shed requests get a ``frontend.shed`` point event
before their future is rejected, so overload is visible in traces, not
just counters.  When a :class:`~repro.serving.metrics.MetricsRegistry`
is attached, the same events feed shed counters by reason, queue-wait
and fused-batch-size histograms, and per-worker decode stats.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from multiprocessing import connection as mp_connection

from repro.obs import trace
from repro.serving.metrics import MetricsRegistry
from repro.serving.procpool import ProcessPool, WorkerHandle
from repro.utils.logging import get_logger

LOGGER = get_logger("serving.frontend")

R = TypeVar("R")

#: The in-process executor: ``run_batch(queries, ks, trace_contexts)``
#: returns one result per query, in order.
RunBatch = Callable[[List[str], List[Optional[int]], List[Any]], Sequence[Any]]

#: How many times a job is re-dispatched after killing a worker before
#: it is failed back to the caller (1 = one respawn-and-retry).
MAX_REDISPATCHES = 1

#: Fused-batch-size histogram buckets (queries per worker job, not
#: seconds — the histogram machinery only needs positive bounds).
FUSED_BATCH_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)

#: Front-end counter → registry counter mirror: the shed counters are
#: named by admission *reason* in the exposition, per the SLO docs.
_COUNTER_METRICS = {
    "shed_queue_full": "frontend.shed.reject_new",
    "shed_dropped_oldest": "frontend.shed.drop_oldest",
    "shed_deadline": "frontend.shed.deadline",
    "worker_deaths": "frontend.worker_deaths",
    "redispatches": "frontend.redispatches",
    "jobs_failed": "frontend.jobs_failed",
    "jobs_ok": "frontend.jobs_ok",
}


class ShedError(RuntimeError):
    """A request refused by admission control (HTTP 503, code ``shed``).

    ``reason`` is one of ``queue_full`` (reject_new policy),
    ``dropped_oldest`` (displaced by a newer arrival), ``deadline``
    (waited past the queueing deadline), or ``shutdown``.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class BatchFuture(Generic[R]):
    """A minimal future resolved by the dispatcher thread."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._result: Optional[R] = None
        self._error: Optional[BaseException] = None

    def _resolve(self, result: R) -> None:
        self._result = result
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        """Whether a result or error has been delivered."""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> R:
        """Block for the result; raises ``TimeoutError`` if not ready."""
        if not self._done.wait(timeout):
            raise TimeoutError("batched request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result  # type: ignore[return-value]


class FrontendJob:
    """One ``link_many`` burst waiting for (or on) the executor."""

    __slots__ = (
        "queries",
        "ks",
        "future",
        "admitted_at",
        "dispatches",
        "spans",
        "queue_spans",
        "dispatch_spans",
    )

    def __init__(
        self,
        queries: List[str],
        ks: List[Optional[int]],
        admitted_at: float,
        spans: Optional[Sequence[Any]] = None,
    ) -> None:
        self.queries = queries
        self.ks = ks
        self.future: BatchFuture[List[Any]] = BatchFuture()
        self.admitted_at = admitted_at
        self.dispatches = 0
        #: One optional parent span per query, handed over by the
        #: submitting thread; queue/fuse(/dispatch) children hang under
        #: it, and in-process it is the linker's trace context.
        normalized: List[Any] = list(spans) if spans is not None else []
        while len(normalized) < len(queries):
            normalized.append(None)
        self.spans = normalized[: len(queries)]
        self.queue_spans: List[Any] = [None] * len(queries)
        self.dispatch_spans: List[Any] = [None] * len(queries)

    def open_queue_spans(self, redispatch: bool = False) -> None:
        """A ``frontend.queue`` child per traced query (wait visible)."""
        for index, parent in enumerate(self.spans):
            if parent is not None and parent.is_recording:
                child = parent.child("frontend.queue")
                if redispatch:
                    child.set_tag("redispatch", True)
                self.queue_spans[index] = child

    def close_queue_spans(self) -> None:
        """End the queue-wait spans (the job is leaving the queue)."""
        for index, queued in enumerate(self.queue_spans):
            if queued is not None:
                queued.end()
                self.queue_spans[index] = None

    def shed(self, reason: str) -> None:
        """Make the shed visible in the trace before the future rejects."""
        for parent in self.spans:
            if parent is not None and parent.is_recording:
                parent.add_event("frontend.shed", reason=reason)
        for index, queued in enumerate(self.queue_spans):
            if queued is not None:
                queued.set_tag("shed", reason)
                queued.end()
                self.queue_spans[index] = None

    def close_dispatch_spans(self, error: Optional[str] = None) -> None:
        """End the dispatch spans, tagging the worker error if any."""
        for index, dispatched in enumerate(self.dispatch_spans):
            if dispatched is not None:
                if error is not None:
                    dispatched.set_tag("error", error)
                dispatched.end()
                self.dispatch_spans[index] = None


class AdmissionQueue:
    """A bounded FIFO with explicit overload and staleness policy.

    Pure data structure (thread-safe, no I/O) so its invariants are
    directly property-testable: the depth never exceeds ``bound``, and
    every rejected entry comes back out through a :class:`ShedError`
    or the returned shed lists — nothing is silently lost.
    """

    def __init__(
        self, bound: int, policy: str = "reject_new", deadline_s: float = 0.0
    ) -> None:
        self.bound = bound
        self.policy = policy
        self.deadline_s = deadline_s
        self._items: Deque[FrontendJob] = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def offer(self, job: FrontendJob) -> List[FrontendJob]:
        """Admit ``job``; returns jobs displaced by ``drop_oldest``.

        Raises :class:`ShedError` when the queue is full under
        ``reject_new``.  A bound of 0 admits everything (admission
        control off).
        """
        with self._lock:
            if self.bound > 0 and len(self._items) >= self.bound:
                if self.policy == "reject_new":
                    raise ShedError(
                        "queue_full",
                        f"admission queue is full ({self.bound} waiting); "
                        "request shed",
                    )
                dropped = [self._items.popleft()]
                self._items.append(job)
                return dropped
            self._items.append(job)
            return []

    def remove(self, job: FrontendJob) -> bool:
        """Withdraw ``job`` if it is still queued; False once taken."""
        with self._lock:
            try:
                self._items.remove(job)
            except ValueError:
                return False
            return True

    def requeue_front(self, job: FrontendJob) -> None:
        """Put a job back at the head (crash re-dispatch keeps FIFO)."""
        with self._lock:
            self._items.appendleft(job)

    def take(
        self, now: Optional[float] = None
    ) -> Tuple[Optional[FrontendJob], List[FrontendJob]]:
        """Pop the next live job; expired jobs come back separately.

        Returns ``(job, expired)`` where ``expired`` are the
        deadline-overrun jobs skipped to reach it (the caller sheds
        their futures); ``job`` is None when the queue drained.
        """
        clock = now if now is not None else time.monotonic()
        expired: List[FrontendJob] = []
        with self._lock:
            while self._items:
                job = self._items.popleft()
                if (
                    self.deadline_s > 0
                    and clock - job.admitted_at > self.deadline_s
                ):
                    expired.append(job)
                    continue
                return job, expired
        return None, expired

    def drain(self) -> List[FrontendJob]:
        """Remove and return every queued job (shutdown/flush path)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
        return items


class AsyncFrontend:
    """The dispatcher: one thread feeding one executor.

    Give exactly one executor: ``pool`` (forked workers, one job in
    flight per worker pipe) or ``run_batch`` (called inline on the
    dispatcher thread — the in-process executor).
    """

    def __init__(
        self,
        pool: Optional[ProcessPool] = None,
        admission_bound: int = 256,
        deadline_ms: float = 0.0,
        shed_policy: str = "reject_new",
        max_batch_size: int = 8,
        metrics: Optional[MetricsRegistry] = None,
        run_batch: Optional[RunBatch] = None,
    ) -> None:
        if (pool is None) == (run_batch is None):
            raise ValueError("give exactly one of pool or run_batch")
        self.pool = pool
        self._run_batch = run_batch
        self.metrics = metrics
        self.queue = AdmissionQueue(
            admission_bound, policy=shed_policy, deadline_s=deadline_ms / 1000.0
        )
        self._max_batch_size = max_batch_size
        self._job_ids = itertools.count(1)
        #: job-id → (fused jobs, per-job query counts), for result scatter.
        self._inflight: Dict[int, Tuple[List[FrontendJob], List[int]]] = {}
        self._stopped = threading.Event()
        self.all_ready = threading.Event()
        if pool is None:
            self.all_ready.set()  # the in-process executor is ready now
        self.init_error: Optional[str] = None
        self.counters: Dict[str, int] = {
            "shed_queue_full": 0,
            "shed_dropped_oldest": 0,
            "shed_deadline": 0,
            "worker_deaths": 0,
            "redispatches": 0,
            "jobs_failed": 0,
            "jobs_ok": 0,
        }
        self._counters_lock = threading.Lock()
        # Wakeup channel: submit() writes one byte, the dispatch loop's
        # connection.wait() returns, new work is considered.  A plain
        # socketpair keeps the loop select()-driven with no polling.
        # Both ends are non-blocking: a full buffer already holds a
        # pending wakeup, so a dropped byte loses nothing.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._thread = threading.Thread(
            target=self._run, name="link-frontend", daemon=True
        )
        self._thread.start()

    # -- submission (HTTP threads) ------------------------------------------

    def submit(
        self,
        queries: List[str],
        ks: List[Optional[int]],
        spans: Optional[Sequence[Any]] = None,
    ) -> "BatchFuture[List[Any]]":
        """Admit one burst; returns the future for its result list.

        ``spans`` optionally carries one parent span per query; queue
        and fusion children hang under them (see the module docstring
        for how the executor's spans join the tree).
        """
        if self._stopped.is_set():
            raise ShedError("shutdown", "front-end is stopped")
        job = FrontendJob(list(queries), list(ks), time.monotonic(), spans)
        # Queue spans open *before* the offer: once the job is in the
        # queue the dispatcher may take it from another thread, and a
        # reject_new shed closes them with the shed tag.
        job.open_queue_spans()
        try:
            dropped = self.queue.offer(job)
        except ShedError:
            self._count("shed_queue_full")
            job.shed("reject_new")
            raise
        for old in dropped:
            self._count("shed_dropped_oldest")
            old.shed("drop_oldest")
            old.future._reject(
                ShedError(
                    "dropped_oldest",
                    "request displaced from a full admission queue by a "
                    "newer arrival",
                )
            )
        # A stop() that completed between the check above and the offer
        # left no dispatcher to drain this job: withdraw it.  If the
        # dispatcher already took it, it resolves the future itself.
        if self._stopped.is_set() and self.queue.remove(job):
            job.shed("shutdown")
            raise ShedError("shutdown", "front-end is stopped")
        self._wake()
        return job.future

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counters_lock:
            self.counters[name] += amount
        if self.metrics is not None:
            self.metrics.counter(_COUNTER_METRICS[name]).inc(amount)

    def _observe(
        self,
        name: str,
        value: float,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, bounds=bounds).observe(value)

    # -- dispatch loop -------------------------------------------------------

    def _run(self) -> None:
        while not self._stopped.is_set():
            conns = (
                [h.conn for h in self.pool.workers if h.alive or h.ready]
                if self.pool is not None
                else []
            )
            try:
                readable = mp_connection.wait(
                    conns + [self._wake_recv], timeout=0.25
                )
            except OSError:
                continue  # a pipe died between listing and waiting
            for source in readable:
                if source is self._wake_recv:
                    self._drain_wakeups()
                    continue
                self._on_worker_readable(source)
            self._dispatch_ready()
        if self.pool is None:
            # In-process work drains on stop: what was admitted runs.
            self._dispatch_ready()
        self._shutdown_reject()

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _handle_for(self, conn: Any) -> Optional[WorkerHandle]:
        for handle in self.pool.workers:
            if handle.conn is conn:
                return handle
        return None

    def _on_worker_readable(self, conn: Any) -> None:
        handle = self._handle_for(conn)
        if handle is None:
            return
        try:
            message = conn.recv()
        except (EOFError, OSError):
            self._on_worker_death(handle)
            return
        kind = message[0]
        if kind == "ready":
            handle.ready = True
            handle.pid = message[1]
            if all(h.ready for h in self.pool.workers):
                self.all_ready.set()
            return
        if kind == "init_error":
            # A worker that cannot build its linker (torn slab, bad
            # artifact) poisons readiness for the whole service: better
            # a refused rollout than N-1 workers hiding a corrupt map.
            self.init_error = f"{message[1]}: {message[2]}"
            LOGGER.error("worker %d failed to start: %s",
                         handle.worker_id, self.init_error)
            self.all_ready.set()  # unblock start(wait=True) with the error
            return
        job_id = message[0]
        entry = self._inflight.pop(job_id, None)
        handle.inflight = None
        if entry is None:
            return  # stale result from a pre-respawn job already failed
        jobs, sizes = entry
        if message[1] == "ok":
            results, traces, job_stats = message[2], message[3], message[4]
            self._count("jobs_ok")
            if job_stats:
                handle.degraded += job_stats.get("degraded", 0)
                handle.busy_s += job_stats.get("decode_s", 0.0)
                self._observe(
                    "frontend.worker_decode_seconds",
                    job_stats.get("decode_s", 0.0),
                )
            offset = 0
            for job, size in zip(jobs, sizes):
                # Graft each worker subtree under its dispatch span
                # *before* resolving the future: the caller ends the
                # root right after, finalising the stitched trace.
                for index in range(size):
                    dispatched = job.dispatch_spans[index]
                    if dispatched is not None:
                        if traces is not None:
                            trace.graft(dispatched, traces[offset + index])
                        dispatched.end()
                        job.dispatch_spans[index] = None
                job.future._resolve(results[offset : offset + size])
                offset += size
        else:
            self._count("jobs_failed")
            detail = f"{message[2]}: {message[3]}"
            error = RuntimeError(f"worker error: {detail}")
            for job in jobs:
                job.close_dispatch_spans(error=detail)
                job.future._reject(error)

    def _on_worker_death(self, handle: WorkerHandle) -> None:
        self._count("worker_deaths")
        inflight_id = handle.inflight
        handle.inflight = None
        fresh = self.pool.respawn(handle)
        fresh.ready = False  # becomes dispatchable after its handshake
        if inflight_id is None:
            return
        entry = self._inflight.pop(inflight_id, None)
        if entry is None:
            return
        jobs, _ = entry
        for job in jobs:
            job.close_dispatch_spans(error="worker_died")
            if job.dispatches <= MAX_REDISPATCHES:
                # Back to the head of the queue: the retried request
                # keeps its place, so a crash cannot starve it.  The
                # retry wait is a fresh (tagged) queue span.
                self._count("redispatches")
                for parent in job.spans:
                    if parent is not None and parent.is_recording:
                        parent.add_event("frontend.redispatch")
                job.open_queue_spans(redispatch=True)
                self.queue.requeue_front(job)
            else:
                job.future._reject(
                    RuntimeError(
                        "worker process died twice executing this request"
                    )
                )

    def _take_fused(self) -> Tuple[List[FrontendJob], int]:
        """Pop the next fused job: queued bursts up to the size cap.

        Deadline-expired bursts met on the way are shed.  Each taken
        burst's queue wait ends here (histogram, span) and a
        ``frontend.fuse`` span records what it was fused with.
        """
        fused: List[FrontendJob] = []
        queries = 0
        while True:
            job, expired = self.queue.take()
            for stale in expired:
                self._count("shed_deadline")
                stale.shed("deadline")
                stale.future._reject(
                    ShedError(
                        "deadline",
                        "request waited past the queueing deadline "
                        "and was shed undispatched",
                    )
                )
            if job is None:
                break
            if fused and queries + len(job.queries) > self._max_batch_size:
                self.queue.requeue_front(job)
                break
            fused.append(job)
            queries += len(job.queries)
            if queries >= self._max_batch_size:
                break
        now = time.monotonic()
        for job in fused:
            job.dispatches += 1
            self._observe("frontend.queue_wait_seconds", now - job.admitted_at)
            job.close_queue_spans()
            for parent in job.spans:
                if parent is not None and parent.is_recording:
                    parent.child(
                        "frontend.fuse",
                        fused_jobs=len(fused),
                        fused_queries=queries,
                    ).end()
        if fused:
            self._observe(
                "frontend.fused_batch_size",
                float(queries),
                bounds=FUSED_BATCH_BOUNDS,
            )
        return fused, queries

    def _dispatch_ready(self) -> None:
        if self.pool is None:
            while self._run_inline():
                pass
            return
        for handle in self.pool.workers:
            if not handle.ready or handle.inflight is not None:
                continue
            if not handle.alive:
                self._on_worker_death(handle)
                continue
            fused, queries = self._take_fused()
            if not fused:
                return  # queue drained; later workers have nothing either
            job_id = next(self._job_ids)
            flat_queries = [q for job in fused for q in job.queries]
            flat_ks = [k for job in fused for k in job.ks]
            trace_ids: List[Optional[str]] = []
            traced = False
            for job in fused:
                for index, parent in enumerate(job.spans):
                    if parent is None or not parent.is_recording:
                        trace_ids.append(None)
                        continue
                    traced = True
                    trace_ids.append(parent.request_id)
                    job.dispatch_spans[index] = parent.child(
                        "frontend.dispatch",
                        worker=handle.worker_id,
                        job=job_id,
                    )
            self._inflight[job_id] = (fused, [len(j.queries) for j in fused])
            handle.inflight = job_id
            try:
                handle.conn.send(
                    (job_id, flat_queries, flat_ks,
                     trace_ids if traced else None)
                )
            except (OSError, BrokenPipeError):
                self._on_worker_death(handle)
                continue
            handle.jobs += 1
            handle.queries += queries

    def _run_inline(self) -> bool:
        """Run one fused job on this thread; False when the queue is empty.

        Each query's parent span is its trace context, so the linker's
        spans nest directly under it.  An exception rejects only the
        bursts fused into this call.
        """
        fused, queries = self._take_fused()
        if not fused:
            return False
        contexts = [
            span if span is not None and span.is_recording else None
            for job in fused
            for span in job.spans
        ]
        try:
            results = self._run_batch(
                [q for job in fused for q in job.queries],
                [k for job in fused for k in job.ks],
                contexts,
            )
            if len(results) != queries:
                raise RuntimeError(
                    f"batch function returned {len(results)} results "
                    f"for {queries} queries"
                )
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            self._count("jobs_failed")
            for job in fused:
                job.future._reject(error)
            return True
        self._count("jobs_ok")
        offset = 0
        for job in fused:
            job.future._resolve(list(results[offset : offset + len(job.queries)]))
            offset += len(job.queries)
        return True

    def _shutdown_reject(self) -> None:
        error = ShedError("shutdown", "front-end is stopped")
        for job in self.queue.drain():
            job.shed("shutdown")
            job.future._reject(error)
        for jobs, _ in self._inflight.values():
            for job in jobs:
                job.close_dispatch_spans(error="shutdown")
                if not job.future.done():
                    job.future._reject(error)
        self._inflight.clear()

    # -- lifecycle / introspection ------------------------------------------

    @property
    def ready(self) -> bool:
        """Ready once every worker has handshaken (at once in-process),
        and *stays* ready through worker deaths: a respawning slot only
        shrinks capacity (survivors drain the queue), so flapping to
        not-ready would turn a contained crash into rejected requests.
        Only an init error or a stop poisons readiness."""
        return (
            self.init_error is None
            and self.all_ready.is_set()
            and not self._stopped.is_set()
        )

    def stop(self) -> None:
        """Stop the dispatcher and tear down the pool.

        In-process, queued work runs before the dispatcher exits; on
        the worker tier the queue is shed (``ShedError("shutdown")``).
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._wake()
        self._thread.join(timeout=10.0)
        if self.pool is not None:
            self.pool.stop()
        try:
            self._wake_send.close()
            self._wake_recv.close()
        except OSError:
            pass

    def stats(self) -> Dict[str, Any]:
        """Queue depth, shed/death counters, and per-worker stats."""
        with self._counters_lock:
            counters = dict(self.counters)
        stats = {
            "queue_depth": len(self.queue),
            "queue_bound": self.queue.bound,
            "shed_policy": self.queue.policy,
            "deadline_ms": self.queue.deadline_s * 1000.0,
            "max_batch_size": self._max_batch_size,
            "inflight_jobs": len(self._inflight),
            # Sticky readiness, made explicit for the exposition: ready
            # survives worker deaths; only init errors / stop poison it.
            "ready": self.ready,
            "all_ready": self.all_ready.is_set(),
            "init_failed": self.init_error is not None,
            **counters,
        }
        if self.pool is not None:
            stats["workers"] = self.pool.stats()
        return stats


def build_frontend(
    build_linker: Callable[[], Any],
    workers: int,
    admission_bound: int = 256,
    deadline_ms: float = 0.0,
    shed_policy: str = "reject_new",
    max_batch_size: int = 8,
    warm: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> AsyncFrontend:
    """Fork ``workers`` processes and wire the dispatcher over them."""
    pool = ProcessPool(build_linker, workers, warm=warm)
    return AsyncFrontend(
        pool,
        admission_bound=admission_bound,
        deadline_ms=deadline_ms,
        shed_policy=shed_policy,
        max_batch_size=max_batch_size,
        metrics=metrics,
    )
